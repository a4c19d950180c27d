#include "serve/index_manager.h"

#include "fault/fault.h"
#include "util/common.h"
#include "util/status.h"
#include "util/timer.h"

namespace mg::serve {

namespace {

/** RAII publish window: pins see nullptr while this is alive. */
class PublishWindow
{
  public:
    explicit PublishWindow(std::atomic<bool>& flag) : flag_(flag)
    {
        flag_.store(true, std::memory_order_release);
    }
    ~PublishWindow() { flag_.store(false, std::memory_order_release); }

  private:
    std::atomic<bool>& flag_;
};

} // namespace

IndexManager::IndexManager(const graph::VariationGraph& graph,
                           const gbwt::Gbwt& gbwt,
                           const index::MinimizerIndex& minimizers,
                           const index::DistanceIndex& distance,
                           giraffe::SessionParams session,
                           std::string source, std::string load_mode,
                           double load_seconds)
    : sessionParams_(session)
{
    auto gen = std::make_shared<Generation>();
    gen->number = 1;
    gen->source = std::move(source);
    gen->loadMode = std::move(load_mode);
    gen->loadSeconds = load_seconds;
    gen->graph = &graph;
    gen->gbwt = &gbwt;
    gen->minimizers = &minimizers;
    gen->distance = &distance;
    gen->session = std::make_unique<giraffe::MapSession>(
        graph, gbwt, minimizers, distance, sessionParams_);
    current_ = std::move(gen);
}

IndexManager::IndexManager(io::IndexedPangenome&& pangenome,
                           giraffe::SessionParams session,
                           std::string source)
    : sessionParams_(session)
{
    auto gen = std::make_shared<Generation>();
    gen->number = 1;
    gen->source = std::move(source);
    gen->loadMode = io::loadModeName(pangenome.info.mode);
    gen->loadSeconds = pangenome.info.loadSeconds;
    gen->owned.emplace(std::move(pangenome));
    gen->graph = &gen->owned->graph;
    gen->gbwt = &gen->owned->gbwt;
    gen->minimizers = &gen->owned->minimizers;
    gen->distance = &gen->owned->distance;
    gen->session = std::make_unique<giraffe::MapSession>(
        *gen->graph, *gen->gbwt, *gen->minimizers, *gen->distance,
        sessionParams_);
    current_ = std::move(gen);
}

IndexManager::Handle
IndexManager::pin(uint64_t* serving) const
{
    if (publishing_.load(std::memory_order_acquire)) {
        if (serving != nullptr) {
            *serving = windowGeneration_.load(std::memory_order_relaxed);
        }
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(pinMutex_);
    return current_;
}

IndexManager::Handle
IndexManager::current() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    return current_;
}

uint64_t
IndexManager::generation() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    return current_->number;
}

void
IndexManager::publish(Handle next)
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    Retired retired;
    retired.number = current_->number;
    retired.generation = current_;
    if (current_->owned && current_->owned->mapping) {
        retired.mapping = current_->owned->mapping;
    }
    retired_.push_back(std::move(retired));
    ++retiredCount_;
    current_ = std::move(next);
}

SwapOutcome
IndexManager::swap(const std::string& path, obs::Hub* hub)
{
    std::lock_guard<std::mutex> swap_lock(swapMutex_);
    SwapOutcome outcome;
    Handle serving = current();
    outcome.generation = serving->number;

    util::WallTimer timer;
    auto gen = std::make_shared<Generation>();
    try {
        // -- load: read and deep-validate the image before binding it.
        // This is the open/validate split: a corrupt replacement is
        // rejected from its bytes alone, with the serving index never
        // touched.  (The re-validation during load below is therefore
        // belt and braces, not the rejection path.)
        fault::inject("serve.swap.load");
        util::Status valid = io::validatePangenomeFile(path, true);
        if (!valid.ok()) {
            outcome.reason = valid.toString();
            return outcome;
        }
        io::LoadOptions options;
        options.minimizer = serving->minimizers->params();
        options.prefetchFirstQuery = true;
        gen->owned.emplace(io::loadPangenome(path, options));

        // -- validate: the image is structurally sound; now check it is
        // compatible with the serving contract.
        fault::inject("serve.swap.validate");
        const io::IndexedPangenome& loaded = *gen->owned;
        if (loaded.graph.numNodes() == 0) {
            outcome.reason = "replacement pangenome has no nodes";
            return outcome;
        }
        const index::MinimizerParams& now =
            serving->minimizers->params();
        const index::MinimizerParams& next = loaded.minimizers.params();
        if (next.k != now.k || next.w != now.w) {
            outcome.reason = util::cat(
                "replacement minimizer parameters (k=", next.k,
                ",w=", next.w, ") do not match serving (k=", now.k,
                ",w=", now.w, ")");
            return outcome;
        }

        gen->number = serving->number + 1;
        gen->source = path;
        gen->loadMode = io::loadModeName(loaded.info.mode);
        gen->graph = &gen->owned->graph;
        gen->gbwt = &gen->owned->gbwt;
        gen->minimizers = &gen->owned->minimizers;
        gen->distance = &gen->owned->distance;
        gen->session = std::make_unique<giraffe::MapSession>(
            *gen->graph, *gen->gbwt, *gen->minimizers, *gen->distance,
            sessionParams_);
        // Warm every worker slot *before* publish so the first post-swap
        // request pays no lazy-init cost inside the new generation.
        gen->session->warmup(hub);

        // -- publish: raise the window (late pins -> RETRY_AFTER), then
        // flip the handle under the pin mutex.  A fault here fires with
        // the window up but the old generation still published, so a
        // Throw rolls back cleanly and a Crash models dying mid-swap
        // with the old image still the durable truth.
        {
            // Stored before the window's release store, so a pin that
            // sees the window also sees the generation it refuses for.
            windowGeneration_.store(serving->number,
                                    std::memory_order_relaxed);
            PublishWindow window(publishing_);
            fault::inject("serve.swap.publish");
            gen->loadSeconds = timer.seconds();
            outcome.loadSeconds = gen->loadSeconds;
            outcome.generation = gen->number;
            publish(std::move(gen));
        }
    } catch (const util::Error& err) {
        outcome.accepted = false;
        outcome.generation = serving->number;
        outcome.reason = err.what();
        return outcome;
    }
    outcome.accepted = true;

    // -- retire: the old handle now lives only in pinned requests; a
    // fault here must not un-publish (the flip already happened).
    try {
        fault::inject("serve.swap.retire");
    } catch (const util::Error&) {
        // Retirement bookkeeping is passive; nothing to undo.
    }
    return outcome;
}

uint64_t
IndexManager::retiredTotal() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    return retiredCount_;
}

size_t
IndexManager::retiredAlive() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    size_t alive = 0;
    for (const Retired& retired : retired_) {
        if (!retired.generation.expired()) {
            ++alive;
        }
    }
    return alive;
}

size_t
IndexManager::retiredMappingsAlive() const
{
    std::lock_guard<std::mutex> lock(pinMutex_);
    size_t alive = 0;
    for (const Retired& retired : retired_) {
        if (!retired.mapping.expired()) {
            ++alive;
        }
    }
    return alive;
}

} // namespace mg::serve
