(** JSONL request server: the serve tier's per-process engine.

    Reads one JSON request document per line, executes them on a
    domain pool in bounded chunks, and writes one JSON response per
    line {e in input order}. [disesim serve] runs {!serve_channel}
    directly over stdio; every worker process of the {!Coordinator}
    tier (which owns every socket) executes its batches with
    {!run_batch} after the same {!bootstrap}.

    {b Wire envelope (v1).} Beside the {!Request} document proper, an
    input line may carry three envelope members (see doc/service.md
    and doc/serve-tier.md):

    - ["id"] — any JSON value, echoed back verbatim so clients can
      correlate responses (which are in fact emitted in input order);
    - ["v"] — the protocol version. [1] is this dialect; an {e absent}
      ["v"] is the legacy v0 dialect and is accepted unchanged (v0
      carried no version or tenant members); any other value is
      answered with a ["parse"] error naming the supported version;
    - ["tenant"] — a string naming the tenant for admission quotas
      ([tenant_quota] in {!Serve_config.t}); lines without one share
      the anonymous tenant.

    Every response speaks v1: it leads with ["v"]:1 and is either
    [{"v", "id", "ok": true, "key", "cache_hit", "wall_s", "stats"}]
    or [{"v", "id", "ok": false, "error": {"kind", "message"}}], where
    [kind] is a {!Dise_isa.Diag.category}
    (doc/schema/serve_response.schema.json validates both shapes).
    Blank lines are skipped; a malformed line yields an error response
    with kind ["parse"] without killing the stream — this covers
    unparseable JSON, schema violations, and lines longer than
    {!max_line_bytes} (dropped up to the next newline so responses
    never desync from input order).

    {b Scheduling.} Input is framed by {!Lines} as it arrives. A chunk
    is what has already arrived, at most [queue] jobs: the server
    never waits for more input while it holds a job it has not
    answered. Each chunk is admitted against {!Admission}, goes to one
    batch executor — {!run_batch} fans it out over the {!Pool} domains
    ([jobs] wide), the coordinator's executor over its worker
    processes — and is released once its responses have been written
    and flushed; only then is the next chunk taken. The chunk is the
    backpressure unit.

    {b Fault tolerance} (doc/resilience.md has the full semantics):
    job isolation under {!Pool.run_outcomes} (kind ["internal"]),
    per-job deadlines (["timeout"]), admission control — load shedding
    by cumulative [dyn_target] and per-tenant quotas, both answered
    ["overloaded"] — and the fsync-before-execute crash journal that
    {!replay_journal} recovers.

    {b Sessions.} All serving state — the {!Serve_config.t}, the stop
    flag, the journal and manifest handles — lives in an explicit
    {!session} value; stop signalling is per-session (see {!Stop}), so
    several servers (a coordinator's workers, a test harness) can run
    in one process without sharing global flags. The chaos directives
    ([DISESIM_SERVE_CHAOS]) are read when the session is built. *)

val protocol_version : int
(** The wire-envelope version this server speaks: [1]. *)

(** Cooperative per-session stop flag. [signal] is async-signal-safe
    (a single atomic store), so SIGINT/SIGTERM handlers may call it;
    the serving loops poll it between lines and between chunks and
    drain gracefully — the in-flight chunk finishes, its responses
    are flushed, and the loop returns instead of reading on. *)
module Stop : sig
  type t

  val create : unit -> t
  val signal : t -> unit
  val signalled : t -> bool

  val reset : t -> unit
  (** Re-arm a signalled flag (harnesses that reuse a session). *)
end

type session
(** A serving context: one {!Serve_config.t} plus optional
    journal/manifest handles and a {!Stop.t}. *)

val session :
  ?stop:Stop.t ->
  ?journal:Resilience.Journal.t ->
  ?manifest:Dise_telemetry.Manifest.t ->
  Serve_config.t ->
  session
(** Build a session. The journal and manifest handles remain owned by
    the caller: {!bootstrap} replays and clears the journal {e before}
    opening it and returns the open handle to hand in. A fresh
    {!Stop.t} is created when none is given. *)

val config : session -> Serve_config.t
val stop_signal : session -> Stop.t

val stop : session -> unit
(** [stop s] = [Stop.signal (stop_signal s)]. *)

type summary = {
  served : int;  (** responses written (ok and error alike) *)
  errors : int;  (** of which ["ok": false] *)
  cache_hits : int;  (** of which served without simulating *)
  timeouts : int;  (** of the errors, kind ["timeout"] *)
  shed : int;  (** of the errors, kind ["overloaded"] (load or quota) *)
  isolated : int;  (** of the errors, kind ["internal"] *)
}
(** Per-stream result summary; every field is a per-stream delta (the
    underlying counters and metrics are process-wide). *)

val empty_summary : summary

type tag = [ `Hit | `Fresh | `Error of string ]
(** How one response turned out; [`Error] carries the
    {!Dise_isa.Diag.category}. *)

val tally : summary -> tag -> summary
(** Count one written response, bumping the [timeouts] and [shed]
    resilience counters for those kinds. Each response is tallied
    exactly once, by the front end that writes it. *)

val pp_summary : Format.formatter -> summary -> unit
(** ["served N jobs (E errors, H cache hits)"], with a
    [" [T timed out, S shed, I isolated]"] suffix when any of those
    is nonzero. *)

type parsed = {
  id : Dise_telemetry.Json.t;  (** the envelope ["id"]; [Null] if absent *)
  version : int;  (** envelope dialect spoken: [0] (legacy) or [1] *)
  tenant : string option;  (** the envelope ["tenant"], when a string *)
  req : (Request.t, Dise_isa.Diag.t) result;
}
(** One parsed input line. Parse failures keep their response slot
    ([req = Error _]) so output order always matches input order. *)

val parse_job : lineno:int -> string -> parsed
(** Total: any defect in the line (bad JSON, unsupported ["v"],
    non-string ["tenant"], a decoder error) becomes
    [req = Error (Parse _)]. *)

(** The JSONL framer every front end reads through (stdio and each
    socket connection): bytes in, {!parsed} jobs out, in input order,
    each numbered by its input line. Blank lines are skipped. A line
    longer than {!max_line_bytes} is dropped up to its newline, never
    buffered whole, and yields one ["parse"] error slot. *)
module Lines : sig
  type t

  val create : unit -> t

  val feed : t -> string -> parsed list
  (** The jobs of every line the bytes complete; an unfinished last
      line is kept for the next [feed]. *)

  val close : t -> parsed list
  (** End of input: the unfinished last line's job, if any (a final
      line needs no newline to be answered). *)
end

(** The admission policy every front end applies, against whatever is
    in flight: stdio admits each chunk and releases it once answered;
    the socket loop admits each job against every connection's live
    jobs and releases it when its response arrives. Per-tenant quota
    first ([tenant_quota] runnable jobs per tenant), then load
    shedding by cumulative [dyn_target] against [shed_above], where
    the first job in flight is always admitted. A refused job holds
    nothing, so a shed job does not count against its tenant's
    quota. *)
module Admission : sig
  type t

  val create : Serve_config.t -> t

  val admit : t -> parsed -> (unit -> unit, Dise_isa.Diag.t) result
  (** [Ok release] books the job until [release ()] (idempotent);
      [Error (Overloaded _)] refuses it. A job that is already an
      error ([req = Error d]) is returned as [Error d]. *)
end

val error_response : Dise_telemetry.Json.t -> Dise_isa.Diag.t -> Dise_telemetry.Json.t
(** [error_response id diag]: the v1 error response object. *)

type executor = (float * parsed) array -> (Dise_telemetry.Json.t * tag) array
(** A batch executor: answers every [(enqueued_at, job)] of one
    admitted chunk, in order. Parse and admission failures
    ([req = Error _]) are answered as errors without executing. *)

val run_batch : session -> executor
(** The in-process executor: journal each runnable job's begin and
    fsync, run the batch on {!Pool.run_outcomes}, answer isolated
    exceptions with kind ["internal"], then mark each job done and
    fsync. Stdio serving and every worker process use it. *)

val serve_channel :
  ?exec:executor -> session -> in_channel -> out_channel -> summary
(** Serve one JSONL stream to completion (EOF or session stop): take
    the jobs that have arrived (at most [queue]; a read blocks only
    when every framed job is answered), admit them ({!Admission}),
    hand them to [exec] (default [run_batch session]), tally and write
    the responses in input order, flush, release. On stop the chunk in
    flight finishes and is flushed. Used by [disesim serve] on
    stdin/stdout, with {!run_batch} in-process or the coordinator's
    executor under [--workers].

    {b Observability.} Every request's latency is recorded in the
    process-wide {!Dise_telemetry.Metrics} registry, split into
    [serve_queue_wait_ns] (chunk admission to worker pickup),
    [serve_execute_ns] (the pool's per-task wall-clock), and
    [serve_request_ns] (end-to-end). With a manifest attached, the
    stream emits ["metrics_snapshot"] records at most every
    [metrics_every_s] seconds and one final ["serve_summary"] record
    whose ["counters"] and ["metrics"] members are {e per-session
    deltas} (doc/schema/serve_summary.schema.json validates the
    record); request-latency quantiles live at
    [metrics.histograms.serve_request_ns.p50/p95/p99]. *)

val input_ready : Unix.file_descr -> bool
(** Would a read of the descriptor return at once (data or EOF)? The
    batching rule of both stdio and the worker frame loop: take what
    has already arrived, never wait for more while holding work. *)

val counters_since : (string * int) list -> (string * int) list
(** [counters_since c0]: every {!Resilience.Counters} value minus its
    value in the snapshot [c0] — the per-session counter deltas. *)

val metrics_ticker :
  Dise_telemetry.Manifest.t option ->
  every_s:float ->
  since:Dise_telemetry.Metrics.snapshot ->
  unit ->
  unit
(** [metrics_ticker m ~every_s ~since] is a tick function that emits
    a ["metrics_snapshot"] record (the registry delta since [since])
    to [m] at most once per [every_s] seconds; a no-op without a
    manifest. *)

val replay_journal : ?jobs:int -> dir:string -> unit -> int
(** Re-run every job the journal at [dir] records as begun but not
    done (a crash's leftovers), returning how many were replayed (0
    when there is no journal). Each job re-enters through
    {!Request.run_ext}, so completed work is a cache hit and
    interrupted work lands in the result cache under its original
    key — replay is idempotent. Per-job failures are logged and
    skipped; the caller decides when to {!Resilience.Journal.clear}.
    {!bootstrap} calls this on startup before opening the journal for
    the new run. *)

val shard_journal_dir : root:string -> int -> string
(** [<root>/worker-<shard>]: the journal of one worker shard. *)

val journal_dirs : string -> string list
(** Every journal layout under a [--journal] root: the root itself
    (the in-process journal), then each [worker-<N>] shard in name
    order. *)

val bootstrap :
  ?shard:int -> cache_dir:string option -> Serve_config.t -> Resilience.Journal.t option
(** Set up a serving process: install the disk result cache at
    [cache_dir] ([None] = caching off) and the cache breaker (when
    [breaker > 0]), then, with a journal root configured, replay →
    clear → open. Without [shard] (in-process stdio serving) every
    layout under the root is replayed ({!journal_dirs}) and the
    journal opens at the root; a worker passes its [shard] and
    replays and reopens only {!shard_journal_dir}. Raises
    [Cache.Diag_error] if the cache directory is unusable. *)

val max_line_bytes : int
(** Upper bound on one input line (1 MiB). Longer lines are consumed
    up to the next newline and answered with a per-job ["parse"]
    error naming the offending line number, never buffered whole. *)
