#include "core/engine.h"

#include <algorithm>

namespace jstar {

Engine::Engine(EngineOptions opts) : opts_(std::move(opts)) {
  JSTAR_CHECK_MSG(opts_.threads >= 1, "threads must be >= 1");
}

Engine::Engine(EngineOptions opts, sched::ForkJoinPool* shared_pool)
    : opts_(std::move(opts)),
      external_pool_(opts_.sequential ? nullptr : shared_pool) {
  JSTAR_CHECK_MSG(opts_.threads >= 1, "threads must be >= 1");
}

Engine::~Engine() = default;

void Engine::prepare() {
  if (prepared_) return;
  prepared_ = true;
  if (opts_.sequential) {
    delta_ = std::make_unique<MapDeltaTree>();
  } else {
    if (opts_.delta_stripes >= 1) {
      delta_ = std::make_unique<StripedDeltaTree>(opts_.delta_stripes);
    } else {
      delta_ = std::make_unique<SkipDeltaTree>();
    }
    if (external_pool_ == nullptr) {
      pool_ = std::make_unique<sched::ForkJoinPool>(opts_.threads);
    }
  }
  edges_.resize(tables_.size());
  TableBase::RuntimeEnv env;
  env.delta = delta_.get();
  env.pool = pool();
  env.edges = &edges_;
  env.orders = &orders_;
  env.causality_checks = opts_.causality_checks;
  env.parallel = !opts_.sequential;
  env.task_per_rule = opts_.task_per_rule;
  env.epoch = &epoch_;
  env.simd = opts_.simd;
  env.morsels = opts_.morsels;
  env.emit_buffer = opts_.emit_buffer;
  env.inline_fire_cutoff = opts_.inline_fire_cutoff;
  // configure() registers each table's orderby literals, so it must run
  // before the order relation is frozen into ranks.
  for (auto& t : tables_) {
    t->configure(env, opts_.no_delta.count(t->name()) != 0,
                 opts_.no_gamma.count(t->name()) != 0);
  }
  orders_.freeze();
}

void Engine::process_batch(const DeltaKey& key, BatchNode& node,
                           RunReport& report) {
  // Phase A: move every tuple of this equivalence class into Gamma (all
  // tables), recording freshness.  Running A for all tables before any B
  // makes positive queries at timestamp == now deterministic: every tuple
  // of the class is visible before any rule of the class runs.
  const std::size_t slots = node.per_table.size();
  std::vector<std::vector<std::uint8_t>> keep(slots);
  std::int64_t batch_tuples = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    if (!node.per_table[i]) continue;
    batch_tuples += static_cast<std::int64_t>(node.per_table[i]->count());
    tables_[i]->batch_insert_phase(*node.per_table[i], keep[i]);
  }
  // Phase B: effects + rule firing, morsel-spanned fork/join tasks (§5;
  // sub-threshold batches run inline on this thread).
  for (std::size_t i = 0; i < slots; ++i) {
    if (!node.per_table[i]) continue;
    tables_[i]->batch_fire_phase(*node.per_table[i], keep[i], key);
  }
  // The batch's rule emissions sit in per-thread buffers; the fire-phase
  // join above is the happens-before edge that hands them to this
  // thread, which bulk-appends them before the next pop_min.
  flush_emits();
  ++report.batches;
  report.tuples += batch_tuples;
  report.max_batch = std::max(report.max_batch, batch_tuples);
}

void Engine::flush_emits() {
  for (auto& t : tables_) t->flush_emits();
}

bool Engine::step(RunReport* report) {
  prepare();
  // Puts made through a hand-built RuleCtx since the last batch are
  // still buffered; surface them before deciding whether Delta is empty.
  flush_emits();
  DeltaKey key;
  std::unique_ptr<BatchNode> node;
  if (!delta_->pop_min(key, node)) return false;
  const Counters before = snapshot(tables_);
  RunReport scratch;
  RunReport& out = report != nullptr ? *report : scratch;
  process_batch(key, *node, out);
  out += snapshot(tables_) - before;
  return true;
}

std::int64_t Engine::begin_epoch() {
  prepare();
  const std::int64_t e = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (auto& t : tables_) t->retire_epochs(e);
  return e;
}

RunReport Engine::run() {
  prepare();
  RunReport report;
  WallTimer timer;
  // Surface any puts buffered outside a run (hand-built RuleCtx callers)
  // before the first pop decides whether there is work at all.
  flush_emits();
  const Counters before = snapshot(tables_);
  DeltaKey key;
  std::unique_ptr<BatchNode> node;
  while (delta_->pop_min(key, node)) {
    process_batch(key, *node, report);
    node.reset();
    // The fire phase has joined, so no task of this engine holds a
    // Delta or Gamma node: both may free what they retired.
    if (!opts_.sequential && ++since_gc_ >= opts_.gc_interval_batches) {
      delta_->collect_garbage();
      for (auto& t : tables_) t->collect_garbage();
      since_gc_ = 0;
    }
  }
  report += snapshot(tables_) - before;
  report.seconds = timer.seconds();
  return report;
}

}  // namespace jstar
