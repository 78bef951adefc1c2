// Per-query tracing: a span tree recording where a query spends its time.
//
// A Trace is created by the caller (one per query), passed as an optional
// `Trace*` down the search path, and read back as a tree of TraceSpans.
// Every layer opens a ScopedSpan around its stage (`rtree_search`,
// `candidate_fetch`, `dtw_postfilter`, ...) and attaches counters (pages
// read, nodes visited, DP cells) to the innermost open span.
//
// Cost discipline: with no trace attached (the default everywhere), the
// instrumentation is a null-pointer test and nothing else — no clock
// reads, no allocation. Spans use the steady clock, so durations are
// monotonic and immune to wall-clock adjustment.
//
// A Trace is a single-threaded object WHILE BEING WRITTEN: one execution
// context fills one trace. Queries that cross execution boundaries — the
// sharded engine's scatter-gather fan-out — propagate a TraceContext
// instead of the Trace itself: each sub-task builds its own child Trace
// from the context (same trace_id, same time origin, so start offsets
// stay comparable) and the parent stitches the finished children into
// one coherent tree with Adopt() after the gather barrier. See
// docs/OBSERVABILITY.md ("End-to-end query tracing").

#ifndef WARPINDEX_OBS_TRACE_H_
#define WARPINDEX_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace warpindex {

// One node of the span tree. Spans are stored in begin order; `parent`
// indexes into Trace::spans() (-1 for a root span).
struct TraceSpan {
  std::string name;
  int parent = -1;
  // Offset from Trace construction, and duration, both in milliseconds.
  double start_ms = 0.0;
  double duration_ms = 0.0;
  // Thread-CPU time consumed by the writing thread while this span was
  // open (CLOCK_THREAD_CPUTIME_ID delta between BeginSpan and EndSpan).
  // Includes child spans, like duration_ms. duration_ms - cpu_ms is the
  // span's blocking/waiting share — the wall-vs-CPU skew.
  double cpu_ms = 0.0;
  // Execution tags, stamped from the owning Trace's thread tag at
  // BeginSpan: the shard whose sub-query ran this span (-1 = unsharded /
  // the merging layer) and a logical thread id (0 = the query's origin
  // thread; pool workers report worker index + 1). The trace-event
  // exporter maps these to Perfetto's pid/tid lanes.
  int32_t shard = -1;
  uint32_t tid = 0;
  // Named counters accumulated while this span was innermost (insertion
  // order preserved; duplicates are summed).
  std::vector<std::pair<std::string, double>> counters;
};

// Process-unique 64-bit trace id; never 0 (0 means "no trace").
uint64_t NewTraceId();

// A propagatable reference to an in-flight trace: everything a task on
// another thread needs to record spans that stitch back into the
// originating trace. `origin` is the parent Trace's steady-clock zero, so
// a child Trace built from this context produces directly comparable
// start offsets. A default-constructed context is invalid (trace_id 0) —
// the "no tracing" signal that costs one integer test to check.
struct TraceContext {
  uint64_t trace_id = 0;
  // Index of the span (in the originating trace) the child subtree will
  // be stitched under.
  uint64_t span_id = 0;
  // Head-sampling decision: false means "carry the id for log
  // correlation but record no spans".
  bool sampled = true;
  std::chrono::steady_clock::time_point origin{};

  bool valid() const { return trace_id != 0; }
};

class Trace {
 public:
  // A fresh trace with its own process-unique id.
  Trace() : trace_id_(NewTraceId()), origin_(Clock::now()) {}

  // A child trace continuing `context` on another execution context:
  // adopts the originating trace's id and time origin. Span start
  // offsets are therefore comparable with the parent's and Adopt()
  // needs no clock translation.
  explicit Trace(const TraceContext& context)
      : trace_id_(context.trace_id), origin_(context.origin) {}

  uint64_t trace_id() const { return trace_id_; }

  // The context to hand to a task that should record into this trace's
  // tree under span `span_index` (typically a ScopedSpan::index()).
  TraceContext ContextForSpan(size_t span_index) const {
    TraceContext context;
    context.trace_id = trace_id_;
    context.span_id = span_index;
    context.origin = origin_;
    return context;
  }

  // Tags stamped onto every span begun after this call (see
  // TraceSpan::shard/tid). A child trace sets its tag once, before the
  // sub-query runs.
  void SetThreadTag(int32_t shard, uint32_t tid) {
    tag_shard_ = shard;
    tag_tid_ = tid;
  }

  // Opens a span as a child of the innermost open span and returns its
  // index. Prefer ScopedSpan over calling this directly.
  size_t BeginSpan(std::string_view name);

  // Closes the span at `index` (must be the innermost open span).
  void EndSpan(size_t index);

  // Adds `delta` to counter `name` on the innermost open span; dropped if
  // no span is open.
  void AddCounter(std::string_view name, double delta);

  // Appends an already-completed span verbatim (parent must be -1 or the
  // index of an earlier appended/recorded span). The ingestion side of
  // stitching: tests and (future) wire-deserialized remote sub-traces
  // build span trees without running a clock.
  size_t AppendSpan(TraceSpan span);

  // Stitches `child`'s finished span tree into this trace: child spans
  // are appended with their root spans re-parented under `parent_index`
  // and internal parent links rebased; start offsets, durations, tags,
  // and counters are preserved (child was built from ContextForSpan, so
  // its clock zero is already this trace's). `child` must have no open
  // spans. Call only after the child's writer has finished (e.g. after a
  // scatter-gather barrier) — stitching is a plain copy on the caller's
  // thread.
  void Adopt(size_t parent_index, const Trace& child);

  const std::vector<TraceSpan>& spans() const { return spans_; }

  // Sum of durations of all spans named `name` (0 if none).
  double TotalMillis(std::string_view name) const;

  // Number of spans still open (0 once the query has finished).
  size_t open_depth() const { return open_stack_.size(); }

  // Milliseconds since this trace's time origin — the clock every span's
  // start_ms is measured on. Spans assembled by hand (AppendSpan) take
  // their offsets from here so they nest inside spans recorded live.
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     origin_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;

  uint64_t trace_id_;
  Clock::time_point origin_;
  int32_t tag_shard_ = -1;
  uint32_t tag_tid_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<size_t> open_stack_;
  // Thread-CPU reading (seconds) at each open span's BeginSpan, parallel
  // to open_stack_; EndSpan turns the delta into the span's cpu_ms.
  std::vector<double> open_cpu_s_;
};

// RAII guard opening a span for the lifetime of a scope. A null trace
// makes construction and destruction no-ops.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) {
      index_ = trace_->BeginSpan(name);
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->EndSpan(index_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Index of the opened span (meaningful only with a non-null trace);
  // what ContextForSpan and Adopt stitch against.
  size_t index() const { return index_; }

 private:
  Trace* trace_;
  size_t index_ = 0;
};

// Counter attach that tolerates a null trace (the common case).
inline void TraceCounter(Trace* trace, std::string_view name,
                         double delta) {
  if (trace != nullptr) {
    trace->AddCounter(name, delta);
  }
}

}  // namespace warpindex

#endif  // WARPINDEX_OBS_TRACE_H_
