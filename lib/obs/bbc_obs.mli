(** Observability subsystem: metrics registry, span tracing, JSONL sink.

    Dependency-free (stdlib + a [clock_gettime] stub) so every layer of
    the laboratory — including {!Bbc_parallel} itself — can be
    instrumented without dependency cycles.

    {1 Cost model}

    Observability is {b disabled by default}.  Every hot-path operation
    ({!incr}, {!add}, {!observe}, {!with_span}) first reads one atomic
    flag and returns immediately when it is off, so instrumented code
    pays a single load-and-branch per call site.  The bench harness
    measures this against uninstrumented copies of the [eval] and [apsp]
    hot paths (the [obs_overhead] section of [bench/main.exe --json]).

    {1 Sharding}

    Metric updates are {b per-domain sharded}: each domain is assigned a
    private slot (via [Domain.DLS]) and writes only its own cells, so
    counters and histograms are safe — and contention-free — inside
    {!Bbc_parallel} workers.  Reads ({!counter_value},
    {!histogram_count}, …) merge the shards and may observe a slightly
    stale snapshot while writers are running; quiescent reads are exact.

    {1 Tracing}

    Spans nest per domain (a DLS span stack provides parent ids) and
    every trace event is buffered in a per-domain list; nothing is
    written until {!drain}, which merges all buffers in global sequence
    order and feeds them to the registered sinks, followed by one
    snapshot event per registered metric.  Events are recorded only when
    at least one sink is registered (see {!tracing}), so [--metrics]
    alone never accumulates unbounded event memory. *)

(** {1 Master switch} *)

val enabled : unit -> bool
(** One atomic load: the hot-path guard. *)

val enable : unit -> unit
val disable : unit -> unit

val tracing : unit -> bool
(** [enabled () && at least one sink registered].  Guard for call sites
    that would do extra work ({!Eval.node_cost}, list diffs) just to
    build event attributes. *)

val reset : unit -> unit
(** Zero all metric shards, span aggregates and per-domain event
    buffers.  Registered handles stay valid (their names and storage are
    kept).  Intended for tests. *)

(** {1 Attributes} *)

type value = Int of int | Float of float | Str of string | Bool of bool

type attr = string * value

(** {1 Metrics registry}

    Metrics are created once (typically at module initialisation) and
    looked up by name; creating the same name twice returns the same
    handle, and re-using a name for a different metric kind raises
    [Invalid_argument]. *)

type counter

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Sum over all per-domain shards. *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

type histogram

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record a non-negative sample in the log-scale histogram: bucket [b]
    holds samples in [\[2^b, 2^(b+1))] (bucket 0 also catches [v <= 1]),
    63 buckets in total. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val histogram_buckets : histogram -> int array
(** Merged 63-slot bucket array (a fresh copy). *)

(** {1 Spans} *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds. *)

val with_span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording (when enabled) a timing
    aggregate for [name] and — when {!tracing} — a [span_open] /
    [span_close] event pair around [f]'s events.  Spans nest: the parent
    of a span (or of an {!event}) is the innermost open span on the same
    domain.  Exception-safe: the span closes even if [f] raises. *)

val event : ?attrs:attr list -> string -> unit
(** Instant event under the current span.  No-op unless {!tracing}. *)

val span_stats : unit -> (string * int * int) list
(** [(name, count, total_ns)] per span name, sorted by descending
    cumulative time. *)

(** {1 Sinks and draining} *)

type kind = Span_open | Span_close | Instant | Snapshot

type ev = {
  seq : int;  (** global order, unique across domains *)
  ts_ns : int;
  domain : int;  (** shard slot of the emitting domain *)
  kind : kind;
  name : string;
  id : int;  (** span id; 0 for instants/snapshots *)
  parent : int;  (** enclosing span id; 0 at top level *)
  attrs : attr list;
}

val add_sink : (ev -> unit) -> unit
val clear_sinks : unit -> unit

val jsonl_sink : out_channel -> ev -> unit
(** Writes one JSON object per event, newline-terminated (the schema is
    documented in DESIGN.md section 8). *)

val flush_events : unit -> unit
(** Flush all per-domain buffers to the sinks in sequence order (no
    snapshots).  Lets a command surface buffered events mid-run — e.g.
    the CLI renders the activation stream before its outcome summary. *)

val drain : unit -> unit
(** {!flush_events}, then emit one {!Snapshot} event per registered
    metric (counters: [value]; gauges: [value]; histograms: [count] and
    [sum]).  Idempotent; safe to call with no sinks. *)

(** {1 Summary} *)

val pp_summary : Format.formatter -> unit
(** Human-readable exit report: top spans by cumulative time, counter
    table, gauges, histograms.  Durations are always rendered with a
    unit suffix ([ns]/[us]/[ms]/[s]) so output filters can strip them;
    counts and counter values are plain integers. *)
