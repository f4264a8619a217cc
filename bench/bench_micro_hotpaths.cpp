// google-benchmark microbenchmarks of the protocol hot paths: bitmap scan,
// next-non-zero column scan, slot reduction, block-fusion packet assembly,
// COO conversion, the sparse-baseline merge and count sketch, and
// compression selection.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "baselines/sketch_reducer.h"
#include "compress/compressors.h"
#include "core/reduce_kernels.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/coo.h"
#include "tensor/generators.h"

using namespace omr;

namespace {

tensor::DenseTensor make_input(std::size_t n, double sparsity) {
  sim::Rng rng(42);
  return tensor::make_block_sparse(n, 256, sparsity, rng);
}

void BM_BitmapScan(benchmark::State& state) {
  const auto t = make_input(1 << 22, 0.9);
  const auto bs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    tensor::BlockBitmap bm(t.span(), bs);
    benchmark::DoNotOptimize(bm.nonzero_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.size() * 4));
}
BENCHMARK(BM_BitmapScan)->Arg(32)->Arg(256)->Arg(1024);

void BM_NextNonzeroColumnScan(benchmark::State& state) {
  const auto t = make_input(1 << 22, 0.99);
  tensor::BlockBitmap bm(t.span(), 256);
  for (auto _ : state) {
    tensor::BlockIndex b = -1;
    std::size_t count = 0;
    while ((b = bm.next_nonzero_in_column(b + 4, 0, 4)) !=
           tensor::kNoBlock) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_NextNonzeroColumnScan);

void BM_SlotReduce(benchmark::State& state) {
  std::vector<float> slot(1024, 0.0f);
  std::vector<float> data(1024, 1.5f);
  for (auto _ : state) {
    for (std::size_t i = 0; i < slot.size(); ++i) slot[i] += data[i];
    benchmark::DoNotOptimize(slot.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024 * 4);
}
BENCHMARK(BM_SlotReduce);

void BM_DenseToCoo(benchmark::State& state) {
  const auto t = make_input(1 << 20, 0.95);
  for (auto _ : state) {
    auto coo = tensor::dense_to_coo(t);
    benchmark::DoNotOptimize(coo.nnz());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.size() * 4));
}
BENCHMARK(BM_DenseToCoo);

std::vector<tensor::DenseTensor> make_workers(double sparsity) {
  sim::Rng rng(42);
  return tensor::make_multi_worker(8, 1 << 20, 256, sparsity,
                                   tensor::OverlapMode::kRandom, rng);
}

// The sparse baselines' merge: 8 workers' COO tensors summed over the
// whole key range in worker order.
void BM_SparseRangeAccumulate(benchmark::State& state) {
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : make_workers(0.95)) {
    coo.push_back(tensor::dense_to_coo(t));
  }
  tensor::SparseRangeAccumulator acc(0, 1 << 20);
  for (auto _ : state) {
    for (const auto& t : coo) acc.add(t);
    tensor::CooTensor merged;
    acc.emit(merged);
    benchmark::DoNotOptimize(merged.nnz());
  }
}
BENCHMARK(BM_SparseRangeAccumulate);

// Count-sketch AllReduce of 8 workers' 1M-element tensors at half density:
// build, ring-order merge, simulated ring and median recovery.
void BM_SketchAllreduce(benchmark::State& state) {
  const auto workers = make_workers(0.5);
  for (auto _ : state) {
    auto r = baselines::sketch_allreduce(workers, {});
    benchmark::DoNotOptimize(r.result.values().data());
  }
}
BENCHMARK(BM_SketchAllreduce)->Unit(benchmark::kMillisecond);

void BM_BlockTopK(benchmark::State& state) {
  sim::Rng rng(1);
  tensor::DenseTensor g(1 << 20);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(rng.next_normal());
  }
  const std::size_t nb = tensor::num_blocks(g.size(), 256);
  for (auto _ : state) {
    auto c = compress::block_top_k(g, 256, nb / 100);
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_BlockTopK);

void BM_ErrorFeedbackStep(benchmark::State& state) {
  sim::Rng rng(2);
  tensor::DenseTensor g(1 << 18);
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(rng.next_normal());
  }
  const std::size_t nb = tensor::num_blocks(g.size(), 256);
  compress::ErrorFeedback ef(g.size());
  const compress::Compressor c = [nb](const tensor::DenseTensor& x) {
    return compress::block_top_k(x, 256, nb / 10);
  };
  for (auto _ : state) {
    auto sent = ef.step(g, c);
    benchmark::DoNotOptimize(sent.nnz());
  }
}
BENCHMARK(BM_ErrorFeedbackStep);

void BM_EventQueueChurn(benchmark::State& state) {
  // Steady-state delivery pattern: every handler reschedules itself a
  // short random delay ahead, carrying a shared_ptr payload like
  // Network::deliver. Exercises slot recycling, the timing wheel and the
  // EventFn small-buffer path.
  const std::size_t kStreams = 64;
  const std::uint64_t kEventsPer = static_cast<std::uint64_t>(state.range(0));
  struct Churner {
    sim::Simulator* s;
    sim::Rng rng;
    std::uint64_t remaining = 0;
    std::shared_ptr<std::uint64_t> payload =
        std::make_shared<std::uint64_t>(0);
    void tick() {
      if (remaining == 0) return;
      --remaining;
      s->schedule_after(1 + static_cast<sim::Time>(rng.next_below(997)),
                        [this, msg = payload] { tick(); });
    }
  };
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng seed_rng(42);
    std::vector<Churner> churners(kStreams);
    for (auto& c : churners) {
      c.s = &s;
      c.rng = seed_rng.fork();
      c.remaining = kEventsPer;
    }
    for (auto& c : churners) c.tick();
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreams * kEventsPer));
}
BENCHMARK(BM_EventQueueChurn)->Arg(256)->Arg(1024);

void BM_EventQueueTimerCancel(benchmark::State& state) {
  // The Algorithm 2 retransmission-timer pattern: arm a far timeout, then
  // cancel it when data arrives. Cancellation must be cheap even though
  // the timer sits far from the queue head.
  const std::size_t kStreams = 64;
  const std::uint64_t kRounds = static_cast<std::uint64_t>(state.range(0));
  struct TimerStream {
    sim::Simulator* s;
    sim::Rng rng;
    std::uint64_t remaining = 0;
    sim::EventId timer = 0;
    void on_data() {
      if (timer != 0) {
        s->cancel(timer);
        timer = 0;
      }
      if (remaining == 0) return;
      --remaining;
      timer = s->schedule_after(10000, [this] { timer = 0; });
      s->schedule_after(50 + static_cast<sim::Time>(rng.next_below(101)),
                        [this] { on_data(); });
    }
  };
  for (auto _ : state) {
    sim::Simulator s;
    sim::Rng seed_rng(7);
    std::vector<TimerStream> streams(kStreams);
    for (auto& st : streams) {
      st.s = &s;
      st.rng = seed_rng.fork();
      st.remaining = kRounds;
    }
    for (auto& st : streams) st.on_data();
    s.run();
    benchmark::DoNotOptimize(s.events_cancelled());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreams * kRounds));
}
BENCHMARK(BM_EventQueueTimerCancel)->Arg(256)->Arg(1024);

void BM_ReduceKernel(benchmark::State& state) {
  // The per-(op, arithmetic) kernels the Aggregator dispatches to once per
  // collective. range(0) selects the variant so regressions are visible
  // per kernel, not averaged away.
  const bool fixed = state.range(0) == 1;
  const auto op = state.range(0) == 2 ? core::ReduceOp::kMax
                                      : core::ReduceOp::kSum;
  const core::kernels::ReduceKernel k = core::kernels::select(op, fixed);
  sim::Rng rng(3);
  std::vector<float> dst(4096), src(4096);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(rng.next_normal());
    src[i] = static_cast<float>(rng.next_normal());
  }
  for (auto _ : state) {
    k(dst.data(), src.data(), src.size(), 1048576.0);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(src.size() * 4));
}
BENCHMARK(BM_ReduceKernel)
    ->Arg(0)   // float sum
    ->Arg(1)   // fixed-point sum (switch-ASIC arithmetic)
    ->Arg(2);  // max

}  // namespace

BENCHMARK_MAIN();
