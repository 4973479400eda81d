module Json = Dise_telemetry.Json
module Manifest = Dise_telemetry.Manifest
module Metrics = Dise_telemetry.Metrics
module Stats = Dise_uarch.Stats
module Diag = Dise_isa.Diag

(* Per-request latency, split at the worker-pickup instant: queue wait
   is admission -> pickup, execute is pickup -> response ready (the
   pool's per-task probe measures it), and serve_request_ns is the
   end-to-end sum. Process-wide like every registry instrument;
   serve_summary reports per-session deltas. *)
let h_queue_wait = Metrics.Histogram.make "serve_queue_wait_ns"
let h_execute = Metrics.Histogram.make "serve_execute_ns"
let h_request = Metrics.Histogram.make "serve_request_ns"

let protocol_version = 1

(* Per-session stop signalling. Each serving loop polls its own flag,
   so a coordinator, its workers, and any in-process test servers can
   coexist in one process without clobbering each other — the old
   process-global [request_stop] made that impossible. *)
module Stop = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let signal t = Atomic.set t true
  let signalled t = Atomic.get t
  let reset t = Atomic.set t false
end

type summary = {
  served : int;
  errors : int;
  cache_hits : int;
  timeouts : int;
  shed : int;
  isolated : int;
}

let empty_summary =
  { served = 0; errors = 0; cache_hits = 0; timeouts = 0; shed = 0; isolated = 0 }

type tag = [ `Hit | `Fresh | `Error of string ]

(* The one response classification. Whichever front end writes a
   response tallies it here, exactly once; the timeout and shed
   resilience counters are bumped here too (workers never bump them),
   so merged counter deltas count each event once. *)
let tally s (tag : tag) =
  let s = { s with served = s.served + 1 } in
  match tag with
  | `Hit -> { s with cache_hits = s.cache_hits + 1 }
  | `Fresh -> s
  | `Error cat -> (
    let s = { s with errors = s.errors + 1 } in
    match cat with
    | "timeout" ->
      Resilience.Counters.incr Resilience.Counters.timeouts;
      { s with timeouts = s.timeouts + 1 }
    | "overloaded" ->
      Resilience.Counters.incr Resilience.Counters.shed;
      { s with shed = s.shed + 1 }
    | "internal" -> { s with isolated = s.isolated + 1 }
    | _ -> s)

type session = {
  cfg : Serve_config.t;
  stop : Stop.t;
  journal : Resilience.Journal.t option;
  manifest : Manifest.t option;
  chaos : Resilience.Chaos.t;
}

let session ?stop ?journal ?manifest cfg =
  let stop = match stop with Some s -> s | None -> Stop.create () in
  { cfg; stop; journal; manifest; chaos = Resilience.Chaos.of_env () }

let config s = s.cfg
let stop_signal s = s.stop
let stop s = Stop.signal s.stop

(* One input line, after the sequential parse step. Parse failures
   keep their slot ([req = Error _]) so responses stay in input
   order. [version] is the wire-envelope version the line spoke (0 =
   unversioned legacy, 1 = current); [tenant] feeds admission
   quotas. *)
type parsed = {
  id : Json.t;
  version : int;
  tenant : string option;
  req : (Request.t, Diag.t) result;
}

let parse_error ?(id = Json.Null) ?(version = 0) ?tenant ~lineno msg =
  { id; version; tenant; req = Error (Diag.Parse { source = "serve"; line = lineno; msg }) }

(* Any defect in a single line — unparseable JSON, deep nesting
   blowing the parser's stack, a decoder bug surfacing as an
   unexpected exception — must stay confined to that line's response
   slot; only I/O errors on the stream itself may escape. *)
let parse_job ~lineno line =
  let bad = parse_error ~lineno in
  match Json.parse line with
  | exception Json.Parse_error msg -> bad msg
  | exception Stack_overflow -> bad "JSON nesting too deep"
  | doc -> (
    let id = Option.value (Json.member "id" doc) ~default:Json.Null in
    match Json.member "v" doc with
    | Some v when v <> Json.Int protocol_version ->
      bad ~id
        (Printf.sprintf
           "unsupported protocol version %s (this server speaks v%d; \
            unversioned lines are accepted as v0)"
           (Json.to_string v) protocol_version)
    | v_member -> (
      let version = if v_member = None then 0 else protocol_version in
      match Json.member "tenant" doc with
      | Some (Json.String _ | Json.Null) | None -> (
        let tenant =
          match Json.member "tenant" doc with
          | Some (Json.String t) -> Some t
          | _ -> None
        in
        match Request.of_json doc with
        | Ok req -> { id; version; tenant; req = Ok req }
        | Error d -> { id; version; tenant; req = Error d }
        | exception e ->
          bad ~id ~version ?tenant
            ("malformed request: " ^ Printexc.to_string e))
      | Some _ -> bad ~id ~version "tenant must be a string"))

let error_response id d =
  Json.Obj
    [
      ("v", Json.Int protocol_version);
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("kind", Json.String (Diag.category d));
            ("message", Json.String (Diag.to_string d));
          ] );
    ]

let ok_response id req ~cache_hit ~wall_s stats =
  Json.Obj
    [
      ("v", Json.Int protocol_version);
      ("id", id);
      ("ok", Json.Bool true);
      ("key", Json.String (Request.key req));
      ("cache_hit", Json.Bool cache_hit);
      ("wall_s", Json.Float wall_s);
      ("stats", Stats.to_json stats);
    ]

(* The per-job budget starts when a worker picks the job up, and the
   chaos stall (if any) burns it — that is exactly how the fault
   matrix forces a deterministic timeout without simulating a huge
   workload. A chaos [raise] escapes to the pool on purpose: it
   exercises the [internal] isolation path. *)
let run_parsed ~chaos ~deadline_ms ~enqueued_at p =
  match p.req with
  | Error d -> (error_response p.id d, `Error (Diag.category d))
  | Ok req -> (
    let t0 = Unix.gettimeofday () in
    Metrics.Histogram.observe_s h_queue_wait (t0 -. enqueued_at);
    let finish resp tag =
      Metrics.Histogram.observe_s h_request (Unix.gettimeofday () -. enqueued_at);
      (resp, tag)
    in
    let deadline =
      Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.)) deadline_ms
    in
    Resilience.Chaos.apply chaos ~id:p.id;
    match Request.run_ext ?deadline req with
    | Ok (stats, cache_hit) ->
      let wall_s = Unix.gettimeofday () -. t0 in
      finish
        (ok_response p.id req ~cache_hit ~wall_s stats)
        (if cache_hit then `Hit else `Fresh)
    | Error d -> finish (error_response p.id d) (`Error (Diag.category d)))

(* A job the pool isolated: an exception [run_ext] does not recognize
   (chaos injection, a plain bug) confined to its slot. The response
   says [internal]; the backtrace goes to stderr, where operators
   look for bugs — it must not leak into the protocol. *)
let isolated_response id e bt =
  Format.eprintf "disesim serve: job isolated after unexpected exception: %s@.%s@."
    (Printexc.to_string e)
    (Printexc.raw_backtrace_to_string bt);
  Resilience.Counters.incr Resilience.Counters.isolated;
  ( error_response id
      (Diag.Internal
         ("job failed with unexpected exception: " ^ Printexc.to_string e)),
    `Error "internal" )

let max_line_bytes = 1 lsl 20

(* The one JSONL framer, fed whatever bytes each read returned (stdio
   and every socket connection alike). A line longer than
   [max_line_bytes] is never buffered whole — an adversarial
   multi-gigabyte line must cost one error response, not the server's
   heap: its bytes are dropped up to the next newline and it takes one
   parse-error slot, so responses stay in input order. Blank lines are
   numbered but skipped; a final line without its newline parses or
   fails on its own merits at EOF. *)
module Lines = struct
  type t = { buf : Buffer.t; mutable oversized : bool; mutable lineno : int }

  let create () = { buf = Buffer.create 256; oversized = false; lineno = 0 }

  let add t s off len =
    if not t.oversized then
      if Buffer.length t.buf + len > max_line_bytes then begin
        Buffer.clear t.buf;
        t.oversized <- true
      end
      else Buffer.add_substring t.buf s off len

  (* End the current line, consing its job (if any) onto [acc]. *)
  let end_line t acc =
    t.lineno <- t.lineno + 1;
    if t.oversized then begin
      t.oversized <- false;
      parse_error ~lineno:t.lineno
        (Printf.sprintf "input line %d exceeds %d bytes" t.lineno max_line_bytes)
      :: acc
    end
    else begin
      let line = Buffer.contents t.buf in
      Buffer.clear t.buf;
      if String.trim line = "" then acc else parse_job ~lineno:t.lineno line :: acc
    end

  let feed t data =
    let rec go start acc =
      match String.index_from_opt data start '\n' with
      | None ->
        add t data start (String.length data - start);
        List.rev acc
      | Some i ->
        add t data start (i - start);
        go (i + 1) (end_line t acc)
    in
    go 0 []

  let close t =
    if t.oversized || Buffer.length t.buf > 0 then end_line t [] else []
end

(* The one admission policy, applied against whatever is in flight:
   one chunk at a time on stdio, every connection's live jobs in the
   socket loop. Per-tenant fairness first — each tenant may hold at
   most [tenant_quota] admitted jobs (lines without a ["tenant"] share
   the anonymous tenant) — then the work budget. Its unit is the job's
   [dyn_target] (its dynamic-instruction count — the one size signal a
   request carries that is proportional to simulation cost): a job
   that would push the admitted work past [shed_above] is refused,
   except that the first job is always admitted, however large —
   shedding must bound latency, not deadlock a heavy-but-legitimate
   job. A refused job holds nothing, so a shed job does not count
   against its tenant's quota. *)
module Admission = struct
  type t = {
    cfg : Serve_config.t;
    mutable inflight_work : int;
    tenant_inflight : (string, int) Hashtbl.t;
  }

  let create cfg = { cfg; inflight_work = 0; tenant_inflight = Hashtbl.create 8 }

  let admit t p =
    match p.req with
    | Error d -> Error d
    | Ok req -> (
      let tenant = Option.value p.tenant ~default:"" in
      let held = Option.value (Hashtbl.find_opt t.tenant_inflight tenant) ~default:0 in
      let w = req.Request.dyn_target in
      match (t.cfg.Serve_config.tenant_quota, t.cfg.Serve_config.shed_above) with
      | Some q, _ when held >= max 1 q ->
        Error
          (Diag.Overloaded
             (Printf.sprintf "tenant quota: %s already has %d jobs in flight (quota %d)"
                (if tenant = "" then "the anonymous tenant"
                 else Printf.sprintf "tenant %S" tenant)
                held (max 1 q)))
      | _, Some hw when t.inflight_work > 0 && t.inflight_work + w > hw ->
        Error
          (Diag.Overloaded
             (Printf.sprintf
                "load shed: job of %d dynamic instructions would push the \
                 in-flight work past the high-water mark of %d"
                w hw))
      | _ ->
        Hashtbl.replace t.tenant_inflight tenant (held + 1);
        t.inflight_work <- t.inflight_work + w;
        (* Idempotent: a dead connection's releases run eagerly and
           again when the worker's response arrives. *)
        let released = ref false in
        Ok
          (fun () ->
            if not !released then begin
              released := true;
              t.inflight_work <- t.inflight_work - w;
              match Hashtbl.find t.tenant_inflight tenant with
              | 1 -> Hashtbl.remove t.tenant_inflight tenant
              | n -> Hashtbl.replace t.tenant_inflight tenant (n - 1)
            end))
end

(* Replay journal format: the request document with the client id
   merged back in, so [Request.of_json] decodes it directly. *)
let journal_doc id req =
  match Request.to_json req with
  | Json.Obj fields -> Json.Obj (("id", id) :: fields)
  | j -> j

type executor = (float * parsed) array -> (Json.t * tag) array

(* The in-process executor, shared by stdio serving and every worker
   process. Durability point: every runnable job is journalled — and
   the journal synced — before any of them executes, so a crash
   mid-batch can lose work but never forget it. *)
let run_batch sess jobs =
  let o = sess.cfg in
  let seqs =
    match sess.journal with
    | None -> [||]
    | Some j ->
      let seqs =
        Array.map
          (fun (_, p) ->
            match p.req with
            | Ok req -> Some (Resilience.Journal.append_begin j (journal_doc p.id req))
            | Error _ -> None)
          jobs
      in
      Resilience.Journal.sync j;
      seqs
  in
  let outcomes =
    Pool.run_outcomes ~jobs:o.Serve_config.jobs
      ~probe:(fun _i ~domain:_ dur -> Metrics.Histogram.observe_s h_execute dur)
      (Array.map
         (fun (enqueued_at, p) () ->
           run_parsed ~chaos:sess.chaos ~deadline_ms:o.Serve_config.deadline_ms
             ~enqueued_at p)
         jobs)
  in
  let responses =
    Array.mapi
      (fun i -> function
        | Ok r -> r
        | Error (e, bt) -> isolated_response (snd jobs.(i)).id e bt)
      outcomes
  in
  (match sess.journal with
  | None -> ()
  | Some j ->
    Array.iter (Option.iter (Resilience.Journal.mark_done j)) seqs;
    Resilience.Journal.sync j);
  responses

let counters_since counters0 =
  List.map
    (fun (k, v) -> (k, v - Option.value (List.assoc_opt k counters0) ~default:0))
    (Resilience.Counters.snapshot ())

(* Everything in the summary is a per-session delta: the counters and
   the metrics registry are process-wide (they survive across
   sessions), so each stream subtracts the snapshot it took before
   reading its first chunk. *)
let summary_fields ~counters0 ~metrics0 s =
  let metrics_delta = Metrics.delta ~since:metrics0 (Metrics.snapshot ()) in
  [
    ("record", Json.String "serve_summary");
    ("served", Json.Int s.served);
    ("errors", Json.Int s.errors);
    ("cache_hits", Json.Int s.cache_hits);
    ("timeouts", Json.Int s.timeouts);
    ("shed", Json.Int s.shed);
    ("isolated", Json.Int s.isolated);
    ( "counters",
      Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters_since counters0)) );
    ("metrics", Metrics.to_json metrics_delta);
  ]
  @
  match Request.cache_breaker () with
  | None -> []
  | Some b -> [ ("breaker", Resilience.Breaker.to_json b) ]

(* Periodic observability heartbeat: at most one "metrics_snapshot"
   manifest record per [every_s], carrying the cumulative delta since
   [since]. *)
let metrics_ticker manifest ~every_s ~since =
  match manifest with
  | None -> fun () -> ()
  | Some m ->
    let last = ref (Unix.gettimeofday ()) in
    fun () ->
      let now = Unix.gettimeofday () in
      if now -. !last >= every_s then begin
        last := now;
        Manifest.emit m
          [
            ("record", Json.String "metrics_snapshot");
            ("metrics", Metrics.to_json (Metrics.delta ~since (Metrics.snapshot ())));
          ]
      end

let input_ready fd =
  match Unix.select [ fd ] [] [] 0. with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let serve_channel ?exec sess ic oc =
  let o = sess.cfg in
  let exec = match exec with Some f -> f | None -> run_batch sess in
  let admission = Admission.create o in
  let lines = Lines.create () in
  (* Jobs framed but not yet handed to [exec], and whether input has
     ended. [buf] is at least the channel's own buffer, so each
     [input] empties that buffer and [input_ready] on the descriptor
     tells whether the next one would block. *)
  let framed = Queue.create () in
  let eof = ref false in
  let buf = Bytes.create 65536 in
  let fd = Unix.descr_of_in_channel ic in
  let read () =
    let jobs =
      match input ic buf 0 (Bytes.length buf) with
      | 0 ->
        eof := true;
        Lines.close lines
      | n -> Lines.feed lines (Bytes.sub_string buf 0 n)
    in
    List.iter (fun p -> Queue.add p framed) jobs
  in
  let summary = ref empty_summary in
  (* Session baselines for per-stream deltas, taken before the first
     chunk is read. *)
  let counters0 = Resilience.Counters.snapshot () in
  let metrics0 = Metrics.snapshot () in
  (* Chunk-granular: the loop only runs between batches. *)
  let metrics_tick =
    metrics_ticker sess.manifest ~every_s:o.Serve_config.metrics_every_s
      ~since:metrics0
  in
  let rec loop () =
    if not (Stop.signalled sess.stop) then
      if Queue.is_empty framed then begin
        (* Nothing is waiting for an answer: the one read that may
           block. *)
        if not !eof then begin
          read ();
          loop ()
        end
      end
      else begin
        (* A chunk is what has already arrived, up to [queue] jobs. *)
        while
          (not !eof) && Queue.length framed < o.Serve_config.queue && input_ready fd
        do
          read ()
        done;
        let chunk =
          Array.init (min o.Serve_config.queue (Queue.length framed)) (fun _ ->
              Queue.pop framed)
        in
        let enqueued_at = Unix.gettimeofday () in
        let releases = ref [] in
        let admitted =
          Array.map
            (fun p ->
              match Admission.admit admission p with
              | Ok release ->
                releases := release :: !releases;
                (enqueued_at, p)
              | Error d -> (enqueued_at, { p with req = Error d }))
            chunk
        in
        Array.iter
          (fun (resp, tag) ->
            summary := tally !summary tag;
            output_string oc (Json.to_string resp);
            output_char oc '\n')
          (exec admitted);
        flush oc;
        List.iter (fun release -> release ()) !releases;
        metrics_tick ();
        loop ()
      end
  in
  loop ();
  (match sess.manifest with
  | None -> ()
  | Some m -> Manifest.emit m (summary_fields ~counters0 ~metrics0 !summary));
  !summary

let pp_summary ppf s =
  Format.fprintf ppf "served %d job%s (%d error%s, %d cache hit%s)" s.served
    (if s.served = 1 then "" else "s")
    s.errors
    (if s.errors = 1 then "" else "s")
    s.cache_hits
    (if s.cache_hits = 1 then "" else "s");
  if s.timeouts > 0 || s.shed > 0 || s.isolated > 0 then
    Format.fprintf ppf " [%d timed out, %d shed, %d isolated]" s.timeouts
      s.shed s.isolated

(* Replay begun-but-unfinished journal entries after a crash. Each
   entry re-enters through [Request.run_ext], so a completed replay
   lands in the content-addressed result cache under the same key the
   original would have used — replaying is idempotent, and a job that
   did finish before the crash is a pure cache hit. Failures
   (including a corrupt entry that no longer decodes) are logged and
   skipped; replay must never prevent the server from starting. *)
let replay_journal ?jobs ~dir () =
  match Resilience.Journal.pending ~dir with
  | [] -> 0
  | pending ->
    let tasks =
      List.map
        (fun (seq, doc) () ->
          match Request.of_json doc with
          | Ok req -> ignore (Request.run_ext req)
          | Error d ->
            Format.eprintf
              "disesim serve: journal entry %d is not replayable: %s@." seq
              (Diag.to_string d))
        pending
    in
    let outcomes = Pool.run_outcomes ?jobs (Array.of_list tasks) in
    Array.iter
      (function
        | Error (e, _) ->
          Format.eprintf "disesim serve: journal replay failed (isolated): %s@."
            (Printexc.to_string e)
        | Ok () -> ())
      outcomes;
    let n = List.length pending in
    Resilience.Counters.add Resilience.Counters.journal_replayed n;
    n

(* --- journal layouts and process bootstrap ------------------------------ *)

let shard_journal_dir ~root shard =
  Filename.concat root (Printf.sprintf "worker-%d" shard)

let is_shard_dirname name =
  let prefix = "worker-" in
  let plen = String.length prefix in
  String.length name > plen
  && String.sub name 0 plen = prefix
  && int_of_string_opt (String.sub name plen (String.length name - plen)) <> None

(* Both journal layouts a [--journal] root can hold: the in-process
   journal at the root itself, then every worker shard in name order. *)
let journal_dirs root =
  let names =
    match Sys.readdir root with names -> names | exception Sys_error _ -> [||]
  in
  Array.sort compare names;
  root
  :: (Array.to_list names
     |> List.filter is_shard_dirname
     |> List.map (Filename.concat root))

let bootstrap ?shard ~cache_dir cfg =
  Request.set_disk_cache (Option.map (fun dir -> Cache.create ~dir) cache_dir);
  if cfg.Serve_config.breaker > 0 then
    Request.set_cache_breaker
      (Some
         (Resilience.Breaker.create ~threshold:cfg.Serve_config.breaker
            ~cooldown_s:(float_of_int cfg.Serve_config.breaker_cooldown_ms /. 1000.)
            ()));
  match cfg.Serve_config.journal with
  | None -> None
  | Some root ->
    let dir, replayed =
      match shard with
      | None -> (root, journal_dirs root)
      | Some s ->
        let dir = shard_journal_dir ~root s in
        (dir, [ dir ])
    in
    (* Replay what a crash interrupted, then start a fresh journal
       (everything recorded is now either cached or just re-executed).
       The replay line on stderr is the operator's crash-recovery
       audit trail. *)
    List.iter
      (fun d ->
        let n = replay_journal ~jobs:cfg.Serve_config.jobs ~dir:d () in
        if n > 0 then
          Format.eprintf "disesim serve: replayed %d interrupted job%s from %s@."
            n (if n = 1 then "" else "s") d;
        Resilience.Journal.clear ~dir:d)
      replayed;
    Some (Resilience.Journal.open_ ~dir)
