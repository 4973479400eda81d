(** Sharded multi-process serve tier.

    [disesim serve --workers N] runs this coordinator, and so does
    every [disesim serve --socket] (with at least one worker): [N] worker
    {e processes} (re-executions of the current binary, dispatched
    through {!worker_child_main} via the {!env_var} spawn
    environment), each owning one shard of the content-addressed
    result keyspace. The coordinator is a pure front end — it parses,
    admits, routes, and reorders, but never simulates:

    - {e sharding} — jobs route by {!Request.key} over a
      consistent-hash ring ({!Shard}), so identical requests always
      reach the same worker and each worker's in-memory state and
      crash-journal shard ([<journal>/worker-<shard>]) are
      authoritative for their slice;
    - {e transport} — length-prefixed JSON frames over each worker's
      stdin/stdout pipes; responses carry the coordinator-global
      sequence number, so the front end can reorder per-stream while
      workers answer in completion order;
    - {e supervision} — a worker that exits is reaped, respawned on
      the same shard, and handed its inflight frames again; the
      replacement replays its journal shard first, so recovery is
      idempotent (previously completed jobs return as cache hits).
      Beyond crash-respawn, the coordinator heartbeats every worker
      ([ping]/[pong] frames, {!Resilience.Health}): a worker that
      misses [suspect_misses] consecutive heartbeats — or holds a
      request longer than [hedge_p95x] times the tier's request p95
      (gray failure) — turns [Suspect] and its in-flight requests are
      {e hedged} to the next worker on the ring; the first non-error
      response wins and duplicates are deduped. A worker that misses
      [dead_misses] heartbeats or exhausts [respawn_cap] is declared
      [Dead] and {e failed over}: it is removed from the ring (only
      its keys move, {!Shard.remove}), its journal shard is replayed
      through the surviving ring, and the tier keeps serving in
      degraded mode — the merged summary's ["topology"] member
      records the new shape;
    - {e admission} — per-tenant quotas and [dyn_target] load
      shedding through {!Server.Admission}, the one policy stdio uses
      too, applied tier-wide against every connection's live jobs;
      rejected jobs are answered ["overloaded"] by the coordinator
      without touching a worker;
    - {e telemetry} — every supervision tick may emit a
      ["metrics_snapshot"] record of the coordinator's own metrics
      delta (at most once per [metrics_every_s]); at shutdown each
      worker ships its counter and metrics deltas, and the coordinator
      folds them ({!Dise_telemetry.Metrics.merge}) with its own into
      one merged ["serve_summary"] manifest record with a per-worker
      ["workers"] breakdown (doc/schema/serve_summary.schema.json).

    Workers execute with {!Server.run_batch} after {!Server.bootstrap},
    so responses are byte-compatible with in-process stdio serving: a
    client cannot tell [--workers 4] from [--workers 0] except by
    throughput. See doc/serve-tier.md. *)

val env_var : string
(** ["DISESIM_SERVE_WORKER"] — presence in the environment makes
    {!worker_child_main} take over the process as a worker. *)

(** One fault from a chaos schedule, applied between client requests
    (the [?chaos] hook below). The deterministic schedule file and its
    seeded execution live in [Dise_fuzz.Chaos_sched]; the coordinator
    only executes actions:

    - [Chaos_kill] — SIGKILL the shard's process; [permanent] first
      exhausts its respawn cap, so the crash triggers failover instead
      of a respawn;
    - [Chaos_stall] — queue a [stall] frame: the worker wedges its
      frame loop for [ms] milliseconds (a gray failure: alive, not
      progressing, not ponging);
    - [Chaos_torn] — queue a [chaos_torn] frame: the worker emits the
      first [cut] bytes of a frame and dies mid-write, leaving a torn
      tail on the pipe;
    - [Chaos_drop_ping] — lose the shard's next heartbeat in transit
      (a guaranteed miss);
    - [Chaos_suspect] — mark the shard [Suspect] directly, hedging
      its in-flight requests on the next supervision pass. *)
type chaos_action =
  | Chaos_kill of { shard : int; permanent : bool }
  | Chaos_stall of { shard : int; ms : int }
  | Chaos_torn of { shard : int; cut : int }
  | Chaos_drop_ping of { shard : int }
  | Chaos_suspect of { shard : int }

val worker_child_main : unit -> unit
(** Worker dispatch hook: call {e first} in any binary that may spawn
    workers (the CLI and the test runner do). Returns immediately in
    a normal process; in a spawned worker it sets the JIT from the
    spawn spec, runs {!Server.bootstrap} for its shard (cache,
    breaker, journal shard replay → clear → open), serves frames from
    stdin until EOF or a stop frame, emits its summary frame, and
    [_exit]s. *)

val run_channel :
  ?stop:Server.Stop.t ->
  ?manifest:Dise_telemetry.Manifest.t ->
  ?on_spawn:(shard:int -> pid:int -> unit) ->
  ?chaos:(requests:int -> chaos_action list) ->
  ?cache_dir:string ->
  ?jit:bool * int ->
  Serve_config.t ->
  in_channel ->
  out_channel ->
  Server.summary
(** Serve one JSONL stream through the worker tier: the stream runs
    {!Server.serve_channel} with the tier as its batch executor, which
    submits each admitted job of a chunk and drains until every one
    has answered. Spawns [max 1 cfg.workers] workers on entry and
    tears the tier down (merged summary included) before returning.
    [cache_dir]/[jit] configure the workers' result cache and JIT
    ([None] cache = caching off); [on_spawn] observes every (re)spawn
    — the fault-injection tests use it to aim SIGKILL. [chaos] is
    consulted once per submitted client request with the running
    request count and returns the faults to apply at that point —
    [Dise_fuzz.Chaos_sched.hook] is the schedule-file-driven
    implementation. *)

val write_all : Unix.file_descr -> string -> int -> unit
(** [write_all fd s off] writes [s] from [off] to the end, surviving
    [EINTR] and — on a descriptor someone marked nonblocking — a full
    pipe ([EAGAIN]/[EWOULDBLOCK]: wait for writability, resume at the
    same offset). The frame transport relies on this never tearing a
    length-prefixed frame; exposed so the tests can drive it against
    a deliberately tiny, nonblocking pipe. *)

val run_socket :
  ?stop:Server.Stop.t ->
  ?manifest:Dise_telemetry.Manifest.t ->
  ?on_spawn:(shard:int -> pid:int -> unit) ->
  ?chaos:(requests:int -> chaos_action list) ->
  ?cache_dir:string ->
  ?jit:bool * int ->
  Serve_config.t ->
  path:string ->
  unit ->
  Server.summary
(** The async front end: a non-blocking [select] event loop
    multiplexing the Unix-domain listener at [path], every accepted
    connection, and all worker pipes in one thread. Each connection
    is an independent JSONL stream with in-order responses and a
    per-connection in-flight cap of [queue] (backpressure: the
    coordinator simply stops reading a maxed-out connection). A
    connection that dies (client reset, I/O error) is counted
    ([conn_failures]), logged, and survived; SIGPIPE is ignored for
    the listener's lifetime. Returns after {!Server.Stop.signal}:
    accepts stop, in-flight work drains and flushes, workers are
    stopped and merged into the summary.

    If [path] already exists, it is {e probed} first: when a live
    server answers, this call refuses to start with
    [Cache.Diag_error (Diag.Overloaded _)] (exit-code class 6) —
    stealing the socket would silently split the service; only a dead
    (stale) socket is unlinked and reclaimed. Raises
    [Cache.Diag_error (Diag.Cache _)] if the socket cannot be
    bound. *)
