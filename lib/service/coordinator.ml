module Json = Dise_telemetry.Json
module Manifest = Dise_telemetry.Manifest
module Metrics = Dise_telemetry.Metrics
module Diag = Dise_isa.Diag

let env_var = "DISESIM_SERVE_WORKER"

(* Client-observed latency of every logical request the coordinator
   completes (enqueue to response, hedges and retries included). The
   supervision layer hedges against this instrument's p95. *)
let h_tier = Metrics.Histogram.make "tier_request_ns"

(* --- frame protocol ----------------------------------------------------- *)

(* Coordinator <-> worker pipes carry 4-byte big-endian length-prefixed
   JSON frames — self-delimiting (JSONL would re-parse request bodies
   to find boundaries) and safe against partial reads on nonblocking
   descriptors.

     C -> W   {"op":"job","seq":N,"enq":T,"id":ID,"req":REQUEST}
              {"op":"ping","t":N}
              {"op":"stop"}
              {"op":"stall","ms":M}        (chaos: sleep M ms)
              {"op":"chaos_torn","cut":K}  (chaos: tear a frame, die)
     W -> C   {"op":"hello","shard":S}     (first frame, always)
              {"op":"resp","seq":N,"tag":"hit"|"fresh"|"error",
               "kind":CATEGORY?,"resp":RESPONSE}
              {"op":"pong","t":N}
              {"op":"summary","shard":S,"counters":{..},"metrics":{..}}

   [seq] is coordinator-global and monotonic, so a respawned worker can
   be handed the same frame again without ambiguity. [ping] frames are
   the supervision heartbeat: a worker answers [pong] from its frame
   loop, so a worker wedged inside a batch stops answering — exactly
   the signal the health machine wants.

   [hello] synchronizes the stream: a worker is a re-exec of the host
   executable, and anything linked into that host may write banners to
   stdout during module initialization, before the worker hook runs
   (the test runner's property-test library prints its random seed).
   The coordinator discards bytes until it sees the exact framed hello
   for the expected shard; only after that does a malformed frame mean
   the stream is poisoned. *)

let max_frame = 8 * 1024 * 1024

let frame_string doc =
  let body = Json.to_string doc in
  let n = String.length body in
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string body 0 b 4 n;
  Bytes.unsafe_to_string b

(* The framed hello for [shard], byte-exact on both sides: the worker
   writes it first, the coordinator scans for it to synchronize. *)
let hello_frame shard =
  frame_string
    (Json.Obj [ ("op", Json.String "hello"); ("shard", Json.Int shard) ])

(* Startup pollution beyond this and the worker is not speaking the
   protocol at all. *)
let hello_preamble_limit = 65536

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then Some 0 else go 0

let be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* Blocking exact read; [false] on EOF (including EOF mid-item, which
   only a dying peer produces). *)
let rec read_exactly fd buf off len =
  if len = 0 then true
  else
    match Unix.read fd buf off len with
    | 0 -> false
    | n -> read_exactly fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      read_exactly fd buf off len

(* Blocking whole-frame read. [None] covers EOF and protocol
   corruption alike: in either case the peer is unusable. *)
let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (read_exactly fd hdr 0 4) then None
  else
    let n = be32 (Bytes.unsafe_to_string hdr) 0 in
    if n < 0 || n > max_frame then None
    else
      let body = Bytes.create n in
      if not (read_exactly fd body 0 n) then None
      else
        match Json.parse (Bytes.unsafe_to_string body) with
        | doc -> Some doc
        | exception Json.Parse_error _ -> None

(* Whole-string write for framing that must not tear. The descriptor
   may have been marked nonblocking by someone else (the coordinator
   sets O_NONBLOCK on its pipe ends, and status flags travel with the
   open file description), so a full pipe can surface as
   [EAGAIN]/[EWOULDBLOCK] mid-frame — wait for writability and resume
   at the same offset instead of dropping the tail. *)
let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (match Unix.select [] [ fd ] [] 1.0 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      write_all fd s off

(* Incremental frame reader for select-driven reads: bytes accumulate
   in [ibuf] and complete frames are peeled off as they arrive. *)
type instream = { ibuf : Buffer.t }

(* Peel complete frames off the buffer. The second component reports a
   poisoned stream — an impossible length prefix or a frame body that
   is not JSON. Framing never recovers from either (every subsequent
   byte boundary is a guess), so the caller must stop trusting the
   peer entirely: kill it, resubmit its inflight work, never parse the
   tail as data. *)
let extract_frames st =
  let data = Buffer.contents st.ibuf in
  let len = String.length data in
  let pos = ref 0 in
  let out = ref [] in
  let poisoned = ref false in
  let continue = ref true in
  while !continue do
    if len - !pos >= 4 then begin
      let n = be32 data !pos in
      if n < 0 || n > max_frame then begin
        pos := len;
        poisoned := true;
        continue := false
      end
      else if len - !pos - 4 >= n then begin
        (match Json.parse (String.sub data (!pos + 4) n) with
        | doc -> out := doc :: !out
        | exception Json.Parse_error _ -> poisoned := true);
        pos := !pos + 4 + n
      end
      else continue := false
    end
    else continue := false
  done;
  Buffer.clear st.ibuf;
  Buffer.add_substring st.ibuf data !pos (len - !pos);
  (List.rev !out, !poisoned)

(* Outgoing byte queue for one descriptor: strings are pushed whole
   and written as far as the fd will take them. *)
type outstream = { oq : string Queue.t; mutable off : int }

let outstream () = { oq = Queue.create (); off = 0 }
let out_pending os = not (Queue.is_empty os.oq)
let out_push os s = Queue.add s os.oq

(* Write until the queue drains or the fd blocks. Raises on hard
   write errors (EPIPE: the peer is gone). *)
let out_write fd os =
  try
    while not (Queue.is_empty os.oq) do
      let s = Queue.peek os.oq in
      let n = Unix.write_substring fd s os.off (String.length s - os.off) in
      if os.off + n = String.length s then begin
        ignore (Queue.pop os.oq);
        os.off <- 0
      end
      else os.off <- os.off + n
    done
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

(* --- worker process ----------------------------------------------------- *)

(* The spawn spec a worker finds in [DISESIM_SERVE_WORKER]:
   {"shard":S,"workers":N,"cache":DIR|null,
    "jit":{"enabled":B,"threshold":K}?,"config":SERVE_CONFIG} *)

type wspec = {
  w_shard : int;
  w_cache : string option;
  w_jit : (bool * int) option;
  w_cfg : Serve_config.t;
}

let wspec_of_json doc =
  let ( let* ) = Result.bind in
  let err msg = Error (Diag.Parse { source = env_var; line = 0; msg }) in
  let* w_shard =
    match Json.member "shard" doc with
    | Some (Json.Int i) when i >= 0 -> Ok i
    | _ -> err "missing shard"
  in
  let* w_cache =
    match Json.member "cache" doc with
    | Some (Json.String d) -> Ok (Some d)
    | Some Json.Null | None -> Ok None
    | Some _ -> err "cache must be a string or null"
  in
  let* w_jit =
    match Json.member "jit" doc with
    | None -> Ok None
    | Some j -> (
      match (Json.member "enabled" j, Json.member "threshold" j) with
      | Some (Json.Bool e), Some (Json.Int k) -> Ok (Some (e, k))
      | _ -> err "malformed jit member")
  in
  let* w_cfg =
    match Json.member "config" doc with
    | Some c -> Serve_config.of_json c
    | None -> err "missing config"
  in
  Ok { w_shard; w_cache; w_jit; w_cfg }

let tag_name = function `Hit -> "hit" | `Fresh -> "fresh" | `Error _ -> "error"

(* One decoded job frame: its [seq] and the [(enqueued_at, job)] pair
   {!Server.run_batch} executes. *)
let decode_job doc =
  let id = Option.value (Json.member "id" doc) ~default:Json.Null in
  let seq =
    match Json.member "seq" doc with Some (Json.Int s) -> s | _ -> -1
  in
  let enq =
    match Json.member "enq" doc with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> Unix.gettimeofday ()
  in
  let req =
    match Json.member "req" doc with
    | Some r -> Request.of_json r
    | None ->
      Error (Diag.Parse { source = "serve-worker"; line = 0; msg = "job frame without req" })
  in
  (seq, (enq, { Server.id; version = Server.protocol_version; tenant = None; req }))

(* [counters0]/[metrics0] are snapshotted by the caller {e before}
   journal replay, so replayed-job counts ship in the summary delta
   and surface in the coordinator's merged counters. *)
let worker_serve spec sess ~counters0 ~metrics0 =
  let emit_frame doc = write_all Unix.stdout (frame_string doc) 0 in
  let run_batch batch =
    let seqs, jobs = List.split batch in
    List.iter2
      (fun seq (resp, tag) ->
        let kind = match tag with `Error k -> [ ("kind", Json.String k) ] | _ -> [] in
        emit_frame
          (Json.Obj
             ([
                ("op", Json.String "resp");
                ("seq", Json.Int seq);
                ("tag", Json.String (tag_name tag));
              ]
             @ kind
             @ [ ("resp", resp) ])))
      seqs
      (Array.to_list (Server.run_batch sess (Array.of_list jobs)))
  in
  (* Supervision and chaos control frames, answered inline from the
     frame loop (a worker wedged inside a batch therefore stops
     ponging — the signal the coordinator's health machine reads). *)
  let handle_ctl doc op =
    match op with
    | "ping" ->
      emit_frame
        (Json.Obj
           [
             ("op", Json.String "pong");
             ("t", Option.value (Json.member "t" doc) ~default:Json.Null);
           ])
    | "stall" -> (
      (* chaos: wedge the frame loop for a while, like a gray-failing
         process that is alive but not making progress *)
      match Json.member "ms" doc with
      | Some (Json.Int ms) when ms > 0 -> Unix.sleepf (float_of_int ms /. 1000.)
      | _ -> ())
    | "chaos_torn" ->
      (* chaos: die mid-write. Emit the first [cut] bytes of a frame
         whose header promises 256 body bytes, then exit — exactly the
         torn tail a worker killed inside [write_all] leaves behind.
         [cut < 4] tears the header itself. *)
      let cut =
        match Json.member "cut" doc with Some (Json.Int c) -> c | _ -> 8
      in
      let promised = 256 in
      let full = Bytes.make (4 + promised) 'x' in
      Bytes.set full 0 '\000';
      Bytes.set full 1 '\000';
      Bytes.set full 2 '\001';
      Bytes.set full 3 '\000';
      let cut = max 1 (min cut (4 + promised - 1)) in
      write_all Unix.stdout (Bytes.sub_string full 0 cut) 0;
      Unix._exit 9
    | _ -> ()
  in
  (* Frames arrive one at a time; batch up whatever is already queued
     (up to [queue]) so the domain pool fans out instead of running
     jobs one by one. *)
  let rec loop () =
    match read_frame Unix.stdin with
    | None -> ()
    | Some doc -> (
      match Json.member "op" doc with
      | Some (Json.String "stop") -> ()
      | Some (Json.String (("ping" | "stall" | "chaos_torn") as op)) ->
        handle_ctl doc op;
        loop ()
      | Some (Json.String "job") ->
        let batch = ref [ decode_job doc ] in
        let count = ref 1 in
        let after = ref `Continue in
        while
          !after = `Continue && !count < spec.w_cfg.Serve_config.queue
          && Server.input_ready Unix.stdin
        do
          match read_frame Unix.stdin with
          | None -> after := `Eof
          | Some doc -> (
            match Json.member "op" doc with
            | Some (Json.String "stop") -> after := `Stop
            | Some (Json.String (("ping" | "stall" | "chaos_torn") as op)) ->
              handle_ctl doc op
            | Some (Json.String "job") ->
              batch := decode_job doc :: !batch;
              incr count
            | _ -> ())
        done;
        run_batch (List.rev !batch);
        if !after = `Continue then loop ()
      | _ -> loop ())
  in
  (* First bytes this incarnation contributes: the sync point the
     coordinator scans for past any module-init stdout pollution. *)
  write_all Unix.stdout (hello_frame spec.w_shard) 0;
  loop ();
  emit_frame
    (Json.Obj
       [
         ("op", Json.String "summary");
         ("shard", Json.Int spec.w_shard);
         ( "counters",
           Json.Obj
             (List.map (fun (k, v) -> (k, Json.Int v)) (Server.counters_since counters0))
         );
         ("metrics", Metrics.to_json (Metrics.delta ~since:metrics0 (Metrics.snapshot ())));
       ])

let worker_main spec_text =
  let fail d =
    Format.eprintf "disesim serve worker: %a@." Diag.pp d;
    Diag.exit_code d
  in
  match Json.parse spec_text with
  | exception Json.Parse_error msg ->
    fail (Diag.Parse { source = env_var; line = 0; msg })
  | doc -> (
    match wspec_of_json doc with
    | Error d -> fail d
    | Ok spec -> (
      (* The coordinator orchestrates shutdown with stop frames; a
         terminal's Ctrl-C reaches the whole process group, and
         workers must let the coordinator drain them instead of dying
         mid-batch. *)
      (try
         ignore (Sys.signal Sys.sigint Sys.Signal_ignore);
         ignore (Sys.signal Sys.sigterm Sys.Signal_ignore)
       with Invalid_argument _ | Sys_error _ -> ());
      (match spec.w_jit with
      | None -> ()
      | Some (enabled, threshold) -> Request.set_default_jit ~enabled ~threshold);
      let counters0 = Resilience.Counters.snapshot () in
      let metrics0 = Metrics.snapshot () in
      match Server.bootstrap ~shard:spec.w_shard ~cache_dir:spec.w_cache spec.w_cfg with
      | exception Cache.Diag_error d -> fail d
      | journal ->
        let finish () = Option.iter Resilience.Journal.close journal in
        (match
           worker_serve spec (Server.session ?journal spec.w_cfg) ~counters0 ~metrics0
         with
        | () -> finish ()
        | exception e ->
          finish ();
          Format.eprintf "disesim serve worker: fatal: %s@." (Printexc.to_string e);
          exit 7);
        0))

let worker_child_main () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec ->
    let code = try worker_main spec with _ -> 7 in
    (* Frames go straight through [Unix.write]; nothing buffered needs
       flushing, and skipping at_exit keeps the host binary's handlers
       out of the worker's teardown. *)
    Unix._exit code

(* --- coordinator -------------------------------------------------------- *)

(* One fault from a chaos schedule, applied between client requests.
   The deterministic schedule machinery (JSON file, seeding) lives in
   [Dise_fuzz.Chaos_sched]; the coordinator only executes actions. *)
type chaos_action =
  | Chaos_kill of { shard : int; permanent : bool }
  | Chaos_stall of { shard : int; ms : int }
  | Chaos_torn of { shard : int; cut : int }
  | Chaos_drop_ping of { shard : int }
  | Chaos_suspect of { shard : int }

(* One logical client request. Routing normally gives it a single leg
   (one [seq] on one worker), but supervision may hedge it (a second
   leg on the next ring worker) or re-route it (failover). Exactly one
   client response is ever delivered, whichever leg answers first with
   a non-error; [lr_done] dedupes the stragglers. *)
type lreq = {
  lr_id : Json.t;
  lr_key : string;  (* result-cache key: the routing key *)
  lr_req : Json.t;  (* request document, re-framed per leg *)
  lr_enq : float;
  lr_quiet : bool;
      (* internal resubmission (journal replay): the response must not
         count as client traffic *)
  lr_complete : tag:Server.tag -> Json.t -> unit;
  mutable lr_primary : int;  (* shard of the routed (non-hedge) leg *)
  mutable lr_legs : (int * int) list;  (* (shard, seq) still outstanding *)
  mutable lr_done : bool;
}

type worker = {
  shard : int;
  mutable pid : int;
  mutable to_w : Unix.file_descr;
  mutable from_w : Unix.file_descr;
  mutable wout : outstream;
  win : instream;
  (* seq -> logical request with a leg on this worker; a respawned
     worker is handed every entry again (re-framed from the lreq,
     byte-identical to the original frame). *)
  inflight : (int, lreq) Hashtbl.t;
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
  mutable errs : int;
  mutable restarts : int;
  mutable alive : bool;
  mutable got_summary : bool;
  mutable health : Resilience.Health.t;
  mutable dead : bool;  (* failed over: off the ring for good *)
  mutable drop_pings : int;  (* chaos: heartbeats to lose in transit *)
  mutable saw_hello : bool;  (* this incarnation's stream is synced *)
}

type t = {
  cfg : Serve_config.t;
  cache_dir : string option;
  jit : (bool * int) option;
  nonblocking : bool;
  mutable ring : Shard.t;  (* shrinks as workers are failed over *)
  mutable workers : worker array;
  mutable next_seq : int;
  stop : Server.Stop.t;
  manifest : Manifest.t option;
  on_spawn : (shard:int -> pid:int -> unit) option;
  chaos : (requests:int -> chaos_action list) option;
  mutable chaos_requests : int;
  mutable ping_n : int;
  counters0 : (string * int) list;
  metrics0 : Metrics.snapshot;
  metrics_tick : unit -> unit;
  mutable summaries : (int * Json.t) list;
  mutable shutting_down : bool;
  mutable written : Server.summary;  (* retired socket connections' tallies *)
  admission : Server.Admission.t;  (* socket mode: every live job *)
  scratch : Bytes.t;
}

let worker_spec t shard =
  let cfg =
    (* Workers must not recurse into coordinators or double-write the
       manifest; everything else (jobs, queue, deadline, journal root,
       breaker) is theirs. *)
    { t.cfg with Serve_config.workers = 0; manifest = None }
  in
  Json.to_string
    (Json.Obj
       ([
          ("shard", Json.Int shard);
          ("workers", Json.Int (Array.length t.workers));
          ( "cache",
            match t.cache_dir with
            | None -> Json.Null
            | Some d -> Json.String d );
        ]
       @ (match t.jit with
         | None -> []
         | Some (enabled, threshold) ->
           [
             ( "jit",
               Json.Obj
                 [
                   ("enabled", Json.Bool enabled);
                   ("threshold", Json.Int threshold);
                 ] );
           ])
       @ [ ("config", Serve_config.to_json cfg) ]))

let spawn_env spec =
  let prefix = env_var ^ "=" in
  let kept =
    List.filter
      (fun s ->
        not
          (String.length s >= String.length prefix
          && String.sub s 0 (String.length prefix) = prefix))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (kept @ [ prefix ^ spec ])

(* Spawn the worker process for [w.shard] and (re)wire its pipes. The
   child inherits stderr, so worker diagnostics (journal replay lines,
   isolation backtraces) land on the server's stderr like the
   single-process path. Pipe fds are created close-on-exec: the ends
   meant for the child are passed through [create_process_env]'s dup2
   (which clears the flag on the child's copies), and nothing leaks
   into sibling workers — vital, or a dead worker's pipe would never
   read EOF while a sibling still held its write end. *)
let fresh_health cfg =
  Resilience.Health.create
    ~interval_s:(float_of_int cfg.Serve_config.heartbeat_ms /. 1000.)
    ~suspect_misses:cfg.Serve_config.suspect_misses
    ~dead_misses:cfg.Serve_config.dead_misses ()

let spawn_into t w =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe [| exe |]
      (spawn_env (worker_spec t w.shard))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  if t.nonblocking then begin
    Unix.set_nonblock stdin_w;
    Unix.set_nonblock stdout_r
  end;
  w.pid <- pid;
  w.to_w <- stdin_w;
  w.from_w <- stdout_r;
  w.wout <- outstream ();
  Buffer.clear w.win.ibuf;
  w.alive <- true;
  w.got_summary <- false;
  w.saw_hello <- false;
  (* A fresh process starts with a clean bill of health: accumulated
     misses belonged to its predecessor. *)
  w.health <- fresh_health t.cfg;
  (match t.on_spawn with None -> () | Some f -> f ~shard:w.shard ~pid)

let rec reap pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | _ -> ()

let stop_frame = lazy (frame_string (Json.Obj [ ("op", Json.String "stop") ]))

(* Every leg of a logical request is framed from the lreq, so a
   respawned (or hedge, or failover) worker receives bytes identical
   to the original frame apart from [seq]. *)
let job_frame lr ~seq =
  frame_string
    (Json.Obj
       [
         ("op", Json.String "job");
         ("seq", Json.Int seq);
         ("enq", Json.Float lr.lr_enq);
         ("id", lr.lr_id);
         ("req", lr.lr_req);
       ])

(* Route by result-cache key: identical requests always reach the
   same worker, whose memory and journal shard own that slice of the
   keyspace. *)
let submit ?(quiet = false) t (p : Server.parsed) ~enq ~complete =
  match p.Server.req with
  | Error _ -> invalid_arg "Coordinator.submit: unrunnable job"
  | Ok req ->
    let key = Request.key req in
    let shard = Shard.route t.ring key in
    let w = t.workers.(shard) in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let lr =
      {
        lr_id = p.Server.id;
        lr_key = key;
        lr_req = Request.to_json req;
        lr_enq = enq;
        lr_quiet = quiet;
        lr_complete = complete;
        lr_primary = shard;
        lr_legs = [ (shard, seq) ];
        lr_done = false;
      }
    in
    Hashtbl.replace w.inflight seq lr;
    out_push w.wout (job_frame lr ~seq)

(* Startup crash recovery across resharding and modes. A journal
   root may hold the in-process layout ([<root>/journal.jsonl]) and
   per-shard journals named [<root>/worker-<shard>] after the ring
   that {e wrote} them; restarting with a different [--workers] count
   would otherwise replay each shard on whichever worker happens to
   own that name now (dropping shards past the new count outright)
   while the live ring routes by request key. So the coordinator
   drains every layout itself before the workers start — whatever
   mode and worker count wrote it — and resubmits the entries through
   the {e current} ring via {!submit}, where they are journaled afresh
   by their new owners. Workers keep their own startup replay for the
   mid-session respawn path, where shard ownership cannot have
   changed; they find empty directories here. *)
let drain_orphan_journals root =
  Server.journal_dirs root
  |> List.filter_map (fun dir ->
         match Resilience.Journal.pending ~dir with
         | [] -> None
         | pending ->
           Resilience.Journal.clear ~dir;
           Some (dir, List.map snd pending))

let resubmit_journal_docs t drained =
  List.iter
    (fun (dir, docs) ->
      let n = List.length docs in
      Printf.eprintf "disesim serve: replayed %d interrupted job%s from %s\n%!"
        n (if n = 1 then "" else "s") dir;
      Resilience.Counters.add Resilience.Counters.journal_replayed n;
      List.iter
        (fun doc ->
          match Request.of_json doc with
          | Error d ->
            Format.eprintf
              "disesim serve: journal entry is not replayable: %s@."
              (Diag.to_string d)
          | Ok req ->
            let id = Option.value (Json.member "id" doc) ~default:Json.Null in
            let p =
              { Server.id; version = Server.protocol_version; tenant = None;
                req = Ok req }
            in
            submit ~quiet:true t p ~enq:(Unix.gettimeofday ())
              ~complete:(fun ~tag:_ _ -> ()))
        docs)
    drained

let create ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit ~nonblocking cfg =
  let workers_n = max 1 cfg.Serve_config.workers in
  let cfg = { cfg with Serve_config.workers = workers_n } in
  let metrics0 = Metrics.snapshot () in
  let t =
    {
      cfg;
      cache_dir;
      jit;
      nonblocking;
      ring = Shard.ring ~workers:workers_n ();
      workers = [||];
      next_seq = 0;
      stop = (match stop with Some s -> s | None -> Server.Stop.create ());
      manifest;
      on_spawn;
      chaos;
      chaos_requests = 0;
      ping_n = 0;
      counters0 = Resilience.Counters.snapshot ();
      metrics0;
      metrics_tick =
        Server.metrics_ticker manifest ~every_s:cfg.Serve_config.metrics_every_s
          ~since:metrics0;
      summaries = [];
      shutting_down = false;
      written = Server.empty_summary;
      admission = Server.Admission.create cfg;
      scratch = Bytes.create 65536;
    }
  in
  t.workers <-
    Array.init workers_n (fun shard ->
        {
          shard;
          pid = -1;
          to_w = Unix.stdin;
          from_w = Unix.stdin;
          wout = outstream ();
          win = { ibuf = Buffer.create 4096 };
          inflight = Hashtbl.create 32;
          served = 0;
          hits = 0;
          misses = 0;
          errs = 0;
          restarts = 0;
          alive = false;
          got_summary = false;
          health = fresh_health cfg;
          dead = false;
          drop_pings = 0;
          saw_hello = false;
        });
  (* Drain pre-crash journal shards before any worker starts (so their
     own startup replay cannot race over the same files), spawn the
     tier, then resubmit the drained entries through the current
     ring. *)
  let drained =
    match cfg.Serve_config.journal with
    | None -> []
    | Some root -> drain_orphan_journals root
  in
  Array.iter (fun w -> spawn_into t w) t.workers;
  resubmit_journal_docs t drained;
  t

(* Deliver the single client response of a logical request (via the
   worker [w] that answered) and retire every outstanding leg, so
   stragglers — a hedge sibling, a duplicate after a respawn race —
   find no table entry and are dropped. *)
let complete_lreq t w lr ~tag resp =
  lr.lr_done <- true;
  List.iter
    (fun (shard, seq) -> Hashtbl.remove t.workers.(shard).inflight seq)
    lr.lr_legs;
  lr.lr_legs <- [];
  if not lr.lr_quiet then begin
    w.served <- w.served + 1;
    (match tag with
    | `Hit -> w.hits <- w.hits + 1
    | `Fresh -> w.misses <- w.misses + 1
    | `Error _ -> w.errs <- w.errs + 1);
    Metrics.Histogram.observe_s h_tier (Unix.gettimeofday () -. lr.lr_enq);
    lr.lr_complete ~tag resp
  end

(* Shutdown straggler path: there is no respawn to hand work to, so
   every pending request on [w] is answered with an internal error
   (once — a hedged request aborted on one worker must not be aborted
   again on the other). *)
let abort_pending t w =
  let pending =
    Hashtbl.fold (fun seq lr acc -> (seq, lr) :: acc) w.inflight []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Hashtbl.reset w.inflight;
  List.iter
    (fun (_, lr) ->
      if not lr.lr_done then begin
        lr.lr_done <- true;
        List.iter
          (fun (shard, seq) -> Hashtbl.remove t.workers.(shard).inflight seq)
          lr.lr_legs;
        lr.lr_legs <- [];
        let d = Diag.Internal "worker exited during shutdown" in
        lr.lr_complete ~tag:(`Error (Diag.category d))
          (Server.error_response lr.lr_id d)
      end)
    pending

(* Re-route a legless logical request through the (post-failover)
   ring. The new leg becomes primary: a response from it is normal
   failover recovery, not a hedge win. *)
let resubmit_lreq t lr =
  let shard = Shard.route t.ring lr.lr_key in
  let w = t.workers.(shard) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  lr.lr_primary <- shard;
  lr.lr_legs <- [ (shard, seq) ];
  Hashtbl.replace w.inflight seq lr;
  out_push w.wout (job_frame lr ~seq)

(* Terminal failover: [w] is gone for good (heartbeat death or respawn
   cap). Shrink the ring so only the dead worker's keys move, re-route
   its outstanding legs through the survivors, replay its journal
   shard through the new ring, and keep serving degraded. [w]'s pipes
   must already be closed and the process reaped. With no survivors
   there is nothing to fail over to and the tier gives up. *)
let fail_over t w ~reason =
  w.dead <- true;
  Resilience.Health.force_dead w.health ~reason;
  let survivors = List.filter (fun s -> s <> w.shard) (Shard.alive t.ring) in
  if survivors = [] then begin
    abort_pending t w;
    raise
      (Cache.Diag_error
         (Diag.Internal
            (Printf.sprintf "worker %d is gone (%s) and no workers remain"
               w.shard reason)))
  end;
  Resilience.Counters.incr Resilience.Counters.failovers;
  Format.eprintf
    "disesim serve: worker %d failed over (%s); serving degraded on %d \
     shard%s@."
    w.shard reason (List.length survivors)
    (if List.length survivors = 1 then "" else "s");
  t.ring <- Shard.remove t.ring w.shard;
  let pending =
    Hashtbl.fold (fun seq lr acc -> (seq, lr) :: acc) w.inflight []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Hashtbl.reset w.inflight;
  List.iter
    (fun (seq, lr) ->
      if not lr.lr_done then begin
        lr.lr_legs <-
          List.filter (fun (s, q) -> not (s = w.shard && q = seq)) lr.lr_legs;
        (* A hedge leg may still be racing on a survivor; only a
           request with no live leg left needs re-routing. *)
        if lr.lr_legs = [] then resubmit_lreq t lr
      end)
    pending;
  match t.cfg.Serve_config.journal with
  | None -> ()
  | Some root -> (
    let dir = Server.shard_journal_dir ~root w.shard in
    match Resilience.Journal.pending ~dir with
    | [] -> ()
    | docs ->
      Resilience.Journal.clear ~dir;
      resubmit_journal_docs t [ (dir, List.map snd docs) ])

(* Supervision-initiated death of a live process: heartbeat loss means
   the worker may be wedged rather than exited, so it is killed before
   the blocking reap. *)
let declare_dead t w ~reason =
  Format.eprintf "disesim serve: worker %d (pid %d) declared dead: %s@."
    w.shard w.pid reason;
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  w.alive <- false;
  reap w.pid;
  fail_over t w ~reason

(* A worker died (EOF / write failure) or poisoned its frame stream
   with work outstanding. Reap it, spawn a replacement on the same
   shard, and resubmit every inflight leg: the replacement first
   replays its journal shard (re-deriving results into the shared
   content-addressed cache), so resubmitted jobs that had already run
   come back as cache hits — crash recovery is idempotent end to end.
   Past the respawn cap the shard is failed over instead; during
   shutdown there is no respawn and stragglers are answered with an
   internal error. *)
let handle_crash t w reason =
  (* The poisoned-stream path arrives here with the process still
     running; the kill is a no-op for a worker that already exited. *)
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  w.alive <- false;
  reap w.pid;
  if t.shutting_down then abort_pending t w
  else begin
    w.restarts <- w.restarts + 1;
    if w.restarts > t.cfg.Serve_config.respawn_cap then
      fail_over t w
        ~reason:
          (Printf.sprintf "%s; respawn cap exhausted (%d respawns)" reason
             w.restarts)
    else begin
      Format.eprintf
        "disesim serve: worker %d (pid %d) exited unexpectedly (%s); \
         respawning@."
        w.shard w.pid reason;
      spawn_into t w;
      let pending =
        Hashtbl.fold (fun seq lr acc -> (seq, lr) :: acc) w.inflight []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (seq, lr) ->
          if not lr.lr_done then out_push w.wout (job_frame lr ~seq))
        pending
    end
  end

let dispatch t w doc =
  match Json.member "op" doc with
  | Some (Json.String "resp") -> (
    let seq = match Json.member "seq" doc with Some (Json.Int s) -> s | _ -> -1 in
    match Hashtbl.find_opt w.inflight seq with
    | None -> () (* canceled leg or duplicate after a respawn race *)
    | Some lr ->
      Hashtbl.remove w.inflight seq;
      lr.lr_legs <-
        List.filter (fun (s, q) -> not (s = w.shard && q = seq)) lr.lr_legs;
      let tag =
        match (Json.member "tag" doc, Json.member "kind" doc) with
        | Some (Json.String "hit"), _ -> `Hit
        | Some (Json.String "fresh"), _ -> `Fresh
        | _, Some (Json.String k) -> `Error k
        | _ -> `Error "internal"
      in
      let resp =
        match Json.member "resp" doc with
        | Some r -> r
        | None ->
          Server.error_response lr.lr_id
            (Diag.Internal "worker response without body")
      in
      if lr.lr_done then ()
      else if (match tag with `Error _ -> true | _ -> false) && lr.lr_legs <> []
      then
        (* A hedge sibling is still racing; an error here must not beat
           a success there. If every leg errors, the last one answers
           the client. *)
        ()
      else begin
        if w.shard <> lr.lr_primary then
          Resilience.Counters.incr Resilience.Counters.hedge_wins;
        complete_lreq t w lr ~tag resp
      end)
  | Some (Json.String "pong") -> Resilience.Health.pong w.health
  | Some (Json.String "summary") ->
    w.got_summary <- true;
    t.summaries <- (w.shard, doc) :: t.summaries
  | _ -> ()

(* Pump one readable worker pipe: pull whatever bytes are there,
   dispatch the complete frames, respawn on EOF. A torn frame at pipe
   EOF (a worker died mid-write) is discarded, never parsed — the
   respawn resubmits the affected requests. A poisoned stream (bad
   length prefix, non-JSON body) means the byte boundary is lost for
   good: the worker is killed and crash-handled the same way. *)
let pump_worker t w =
  match Unix.read w.from_w t.scratch 0 (Bytes.length t.scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (e, _, _) ->
    handle_crash t w (Unix.error_message e)
  | 0 ->
    if Buffer.length w.win.ibuf > 0 then begin
      Resilience.Counters.incr Resilience.Counters.torn_frames;
      Buffer.clear w.win.ibuf
    end;
    handle_crash t w "pipe closed"
  | n -> (
    Buffer.add_subbytes w.win.ibuf t.scratch 0 n;
    (* Sync on the hello frame before trusting the stream: a fresh
       incarnation's first bytes may be module-init stdout pollution
       from whatever is linked into the host executable. *)
    let synced =
      w.saw_hello
      ||
      let data = Buffer.contents w.win.ibuf in
      let magic = hello_frame w.shard in
      match find_sub data magic with
      | Some i ->
        Buffer.clear w.win.ibuf;
        let start = i + String.length magic in
        Buffer.add_substring w.win.ibuf data start (String.length data - start);
        w.saw_hello <- true;
        true
      | None ->
        if String.length data > hello_preamble_limit then begin
          Resilience.Counters.incr Resilience.Counters.torn_frames;
          handle_crash t w "no hello from worker"
        end;
        false
    in
    if synced then begin
      let frames, poisoned = extract_frames w.win in
      List.iter (dispatch t w) frames;
      if poisoned then begin
        Resilience.Counters.incr Resilience.Counters.torn_frames;
        handle_crash t w "corrupt frame stream"
      end
    end)

let flush_worker t w =
  if w.alive && out_pending w.wout then
    match out_write w.to_w w.wout with
    | () -> ()
    | exception Unix.Unix_error (_, _, _) -> handle_crash t w "write failed"

(* --- supervision -------------------------------------------------------- *)

(* Hedge a Suspect worker's outstanding requests: each single-leg
   request gains a leg on the next worker clockwise on the ring — the
   worker that would inherit its key if the suspect were removed.
   First non-error answer wins; {!complete_lreq} dedupes the loser.
   Idempotent per request (a request is never hedged past two legs),
   so the supervision tick can call this every pass while the worker
   stays Suspect. *)
let hedge_worker t w =
  Hashtbl.iter
    (fun _seq lr ->
      if (not lr.lr_done) && (not lr.lr_quiet) && List.length lr.lr_legs = 1
      then
        match Shard.next t.ring lr.lr_key ~avoid:w.shard with
        | None -> ()
        | Some shard2 ->
          let w2 = t.workers.(shard2) in
          if w2.alive && not w2.dead then begin
            let seq2 = t.next_seq in
            t.next_seq <- seq2 + 1;
            lr.lr_legs <- (shard2, seq2) :: lr.lr_legs;
            Hashtbl.replace w2.inflight seq2 lr;
            out_push w2.wout (job_frame lr ~seq:seq2);
            Resilience.Counters.incr Resilience.Counters.hedges
          end)
    w.inflight

(* One supervision pass, run from both event loops between selects:
   emit a due metrics snapshot, send due heartbeats, flag gray
   failures (a request outliving [hedge_p95x] times the tier p95 marks
   its worker Suspect), hedge Suspect workers, and fail Dead ones
   over. *)
let supervise t =
  let cfg = t.cfg in
  t.metrics_tick ();
  if (not t.shutting_down) && cfg.Serve_config.heartbeat_ms > 0 then begin
    (* One tier-latency bound per pass, shared by every worker's
       gray-failure check; meaningless below a minimal sample. *)
    let latency_limit =
      if cfg.Serve_config.hedge_p95x <= 0. then infinity
      else
        let snap = Metrics.Histogram.snapshot h_tier in
        if snap.Metrics.Histogram.count >= 32 then
          cfg.Serve_config.hedge_p95x
          *. float_of_int (Metrics.Histogram.quantile snap 0.95)
          /. 1e9
        else infinity
    in
    let now = Unix.gettimeofday () in
    Array.iter
      (fun w ->
        if w.alive && not w.dead then begin
          let h = w.health in
          if Resilience.Health.due h then begin
            if w.drop_pings > 0 then
              (* chaos: the ping is lost in transit — never queued, so
                 it can only ever count as a miss *)
              w.drop_pings <- w.drop_pings - 1
            else begin
              t.ping_n <- t.ping_n + 1;
              out_push w.wout
                (frame_string
                   (Json.Obj
                      [ ("op", Json.String "ping"); ("t", Json.Int t.ping_n) ]))
            end;
            Resilience.Health.ping_sent h
          end;
          if latency_limit < infinity then
            Hashtbl.iter
              (fun _ lr ->
                if (not lr.lr_quiet) && now -. lr.lr_enq > latency_limit then
                  Resilience.Health.suspect h
                    ~reason:"request outlived the hedge latency bound")
              w.inflight;
          match Resilience.Health.state h with
          | Resilience.Health.Healthy -> ()
          | Resilience.Health.Suspect -> hedge_worker t w
          | Resilience.Health.Dead ->
            declare_dead t w
              ~reason:
                (Option.value (Resilience.Health.reason h)
                   ~default:"heartbeat loss")
        end)
      t.workers
  end

(* --- chaos -------------------------------------------------------------- *)

let apply_chaos t act =
  let live shard =
    if shard >= 0 && shard < Array.length t.workers then
      let w = t.workers.(shard) in
      if w.alive && not w.dead then Some w else None
    else None
  in
  match act with
  | Chaos_kill { shard; permanent } -> (
    match live shard with
    | None -> ()
    | Some w ->
      (* The EOF on its pipe reaches [handle_crash], which respawns
         the shard — or, with the cap pre-exhausted for a permanent
         kill, fails it over. *)
      if permanent then
        w.restarts <- max w.restarts t.cfg.Serve_config.respawn_cap;
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()))
  | Chaos_stall { shard; ms } -> (
    match live shard with
    | None -> ()
    | Some w ->
      out_push w.wout
        (frame_string
           (Json.Obj [ ("op", Json.String "stall"); ("ms", Json.Int ms) ])))
  | Chaos_torn { shard; cut } -> (
    match live shard with
    | None -> ()
    | Some w ->
      out_push w.wout
        (frame_string
           (Json.Obj
              [ ("op", Json.String "chaos_torn"); ("cut", Json.Int cut) ])))
  | Chaos_drop_ping { shard } -> (
    match live shard with
    | None -> ()
    | Some w -> w.drop_pings <- w.drop_pings + 1)
  | Chaos_suspect { shard } -> (
    match live shard with
    | None -> ()
    | Some w -> Resilience.Health.suspect w.health ~reason:"chaos schedule")

(* Count one client request against the chaos schedule and apply
   whatever faults it releases. Called at the front door (channel
   chunks and socket lines alike), never for internal resubmissions —
   "kill worker 2 after 40 requests" means client requests. *)
let chaos_tick t =
  match t.chaos with
  | None -> ()
  | Some f ->
    t.chaos_requests <- t.chaos_requests + 1;
    List.iter (apply_chaos t) (f ~requests:t.chaos_requests)

(* --- merged summary ----------------------------------------------------- *)

let sum_counters base extra =
  List.map
    (fun (k, v) ->
      match List.assoc_opt k extra with
      | Some (Json.Int e) -> (k, v + e)
      | _ -> (k, v))
    base

let merged_summary t (s : Server.summary) =
  let counters =
    List.fold_left
      (fun acc (_, doc) ->
        match Json.member "counters" doc with
        | Some (Json.Obj kvs) -> sum_counters acc kvs
        | _ -> acc)
      (Server.counters_since t.counters0)
      t.summaries
  in
  let metrics =
    List.fold_left
      (fun acc (_, doc) ->
        match Json.member "metrics" doc with
        | Some m -> Metrics.merge acc (Metrics.of_json m)
        | None -> acc)
      (Metrics.delta ~since:t.metrics0 (Metrics.snapshot ()))
      t.summaries
  in
  let workers_json =
    Array.to_list
      (Array.map
         (fun w ->
           Json.Obj
             [
               ("shard", Json.Int w.shard);
               ("pid", Json.Int w.pid);
               ("served", Json.Int w.served);
               ("cache_hits", Json.Int w.hits);
               ("cache_misses", Json.Int w.misses);
               ("errors", Json.Int w.errs);
               ("restarts", Json.Int w.restarts);
               ( "health",
                 Json.String
                   (Resilience.Health.state_name (Resilience.Health.state w.health))
               );
             ])
         t.workers)
  in
  (* The post-failover topology: which shards still hold ring points.
     [degraded] flags that at least one shard was failed over and its
     keys now live with the survivors. *)
  let alive_shards = Shard.alive t.ring in
  let dead_shards =
    List.filter
      (fun s -> not (List.mem s alive_shards))
      (List.init (Array.length t.workers) Fun.id)
  in
  let topology =
    Json.Obj
      [
        ("workers", Json.Int (Array.length t.workers));
        ("alive", Json.List (List.map (fun s -> Json.Int s) alive_shards));
        ("dead", Json.List (List.map (fun s -> Json.Int s) dead_shards));
        ("degraded", Json.Bool (dead_shards <> []));
      ]
  in
  let fields =
    [
      ("record", Json.String "serve_summary");
      ("served", Json.Int s.served);
      ("errors", Json.Int s.errors);
      ("cache_hits", Json.Int s.cache_hits);
      ("timeouts", Json.Int s.timeouts);
      ("shed", Json.Int s.shed);
      ("isolated", Json.Int s.isolated);
      ("workers", Json.List workers_json);
      ("topology", topology);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
      ("metrics", Metrics.to_json metrics);
    ]
  in
  (match t.manifest with None -> () | Some m -> Manifest.emit m fields);
  s

(* Graceful tier teardown: queue a stop frame for every live worker,
   drain their summary frames (collecting late responses on the way),
   then reap. A worker that neither summarizes nor exits within the
   deadline is killed — shutdown must terminate even if a job is
   wedged. [s] is the front end's tally of the responses it wrote. *)
let shutdown t s =
  t.shutting_down <- true;
  Array.iter
    (fun w -> if w.alive then out_push w.wout (Lazy.force stop_frame))
    t.workers;
  let deadline = Unix.gettimeofday () +. 10. in
  let outstanding () =
    Array.exists
      (fun w -> w.alive && (not w.got_summary || out_pending w.wout))
      t.workers
  in
  let rec drain () =
    if outstanding () && Unix.gettimeofday () < deadline then begin
      Array.iter (fun w -> flush_worker t w) t.workers;
      let rs =
        Array.to_list t.workers
        |> List.filter_map (fun w ->
               if w.alive && not w.got_summary then Some w.from_w else None)
      in
      let ws =
        Array.to_list t.workers
        |> List.filter_map (fun w ->
               if w.alive && out_pending w.wout then Some w.to_w else None)
      in
      if rs <> [] || ws <> [] then begin
        (match Unix.select rs ws [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rready, _, _ ->
          Array.iter
            (fun w ->
              if w.alive && List.mem w.from_w rready then pump_worker t w)
            t.workers);
        drain ()
      end
    end
  in
  drain ();
  Array.iter
    (fun w ->
      if w.alive then begin
        if not w.got_summary then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close w.to_w with Unix.Unix_error _ -> ());
        (try Unix.close w.from_w with Unix.Unix_error _ -> ());
        reap w.pid;
        w.alive <- false
      end)
    t.workers;
  merged_summary t s

(* --- channel mode ------------------------------------------------------- *)

(* Pump worker pipes (supervising between selects) until [done_]. The
   select deadline bounds the supervision tick, so it must stay well
   under the heartbeat interval. *)
let rec drain_until t done_ =
  if not (done_ ()) then begin
    supervise t;
    Array.iter (fun w -> flush_worker t w) t.workers;
    let rs =
      Array.to_list t.workers
      |> List.filter_map (fun w -> if w.alive then Some w.from_w else None)
    in
    (match Unix.select rs [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rready, _, _ ->
      Array.iter
        (fun w -> if w.alive && List.mem w.from_w rready then pump_worker t w)
        t.workers);
    drain_until t done_
  end

(* The tier's batch executor for [Server.serve_channel]: route and
   submit every admitted job, then drain until each has answered. *)
let tier_batch t jobs =
  let responses = Array.make (Array.length jobs) None in
  let outstanding = ref 0 in
  Array.iteri
    (fun i (enq, (p : Server.parsed)) ->
      match p.Server.req with
      | Error d ->
        responses.(i) <-
          Some (Server.error_response p.Server.id d, `Error (Diag.category d))
      | Ok _ ->
        incr outstanding;
        submit t p ~enq ~complete:(fun ~tag resp ->
            responses.(i) <- Some (resp, tag);
            decr outstanding);
        chaos_tick t)
    jobs;
  drain_until t (fun () -> !outstanding = 0);
  Array.map Option.get responses

(* A peer that hangs up — a client mid-response, or a worker killed
   while the coordinator writes to its pipe — must surface as a write
   error (EPIPE: [fail_conn], [handle_crash]), not as a process-killing
   SIGPIPE. Both front ends run under this. *)
let with_sigpipe_ignored f =
  let prev =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match prev with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ())
    f

let run_channel ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit cfg ic oc =
  with_sigpipe_ignored @@ fun () ->
  let t =
    create ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit ~nonblocking:false
      cfg
  in
  (* The coordinator owns telemetry: the stream's session gets no
     manifest, and [shutdown] emits the merged summary. *)
  let sess = Server.session ~stop:t.stop t.cfg in
  match Server.serve_channel ~exec:(tier_batch t) sess ic oc with
  | s -> shutdown t s
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (shutdown t Server.empty_summary);
    Printexc.raise_with_backtrace e bt

(* --- socket mode: the async front end ----------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  lines : Server.Lines.t;
  cout : outstream;
  mutable next_slot : int;
  mutable next_emit : int;
  ready : (int, Json.t) Hashtbl.t;
  (* slot -> admission release for jobs currently in flight; drained
     eagerly when the connection dies so a failed client cannot pin
     its tenant's quota (or the shed budget) until its jobs finish. *)
  releases : (int, unit -> unit) Hashtbl.t;
  backlog : Server.parsed Queue.t;
      (* framed but not yet admitted: one read can frame more jobs
         than [queue] allows in flight, and they wait here until
         answers free slots *)
  mutable pending : int;
  mutable eof : bool;
  mutable closed : bool;
  mutable tally : Server.summary;
}

(* Complete one slot and flush the in-order prefix to the
   connection's output queue. A closed connection still completes
   (admission state must be released) but the response is dropped. *)
let finish_slot c slot resp =
  c.pending <- c.pending - 1;
  if not c.closed then begin
    Hashtbl.replace c.ready slot resp;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt c.ready c.next_emit with
      | None -> continue := false
      | Some r ->
        Hashtbl.remove c.ready c.next_emit;
        out_push c.cout (Json.to_string r ^ "\n");
        c.next_emit <- c.next_emit + 1
    done
  end

(* The socket front end writes every response, so it tallies each one
   here, exactly once. *)
let answer c slot tag resp =
  c.tally <- Server.tally c.tally tag;
  finish_slot c slot resp

(* Give one framed job the connection's next response slot, admit it
   against everything in flight, and route it. *)
let handle_job t c (p : Server.parsed) =
  let slot = c.next_slot in
  c.next_slot <- slot + 1;
  c.pending <- c.pending + 1;
  match Server.Admission.admit t.admission p with
  | Error d ->
    answer c slot (`Error (Diag.category d)) (Server.error_response p.Server.id d)
  | Ok release ->
    Hashtbl.replace c.releases slot release;
    submit t p ~enq:(Unix.gettimeofday ()) ~complete:(fun ~tag resp ->
        Hashtbl.remove c.releases slot;
        release ();
        answer c slot tag resp);
    chaos_tick t

let add_summary (a : Server.summary) (b : Server.summary) =
  {
    Server.served = a.served + b.served;
    errors = a.errors + b.errors;
    cache_hits = a.cache_hits + b.cache_hits;
    timeouts = a.timeouts + b.timeouts;
    shed = a.shed + b.shed;
    isolated = a.isolated + b.isolated;
  }

(* Does a live server answer on [path]? Distinguishes "another
   instance is running" (refuse to start — stealing its socket would
   silently split the service) from a stale socket left by a crash
   (safe to remove). *)
let socket_live path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | probe ->
    Fun.protect
      ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false)

(* Claim [path] for a fresh listener: refuse if a live server answers,
   reclaim a stale file, bind and listen. *)
let listen_socket ~path =
  if Sys.file_exists path then
    if socket_live path then
      raise
        (Cache.Diag_error
           (Diag.Overloaded
              (Printf.sprintf
                 "socket %s is in use by a live server; refusing to start \
                  (stop the other instance or pick another path)"
                 path)))
    else (
      (* Stale socket from a crashed server: safe to reclaim. *)
      try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 64
   with Unix.Unix_error (e, _, _) ->
     Unix.close sock;
     raise
       (Cache.Diag_error
          (Diag.Cache
             (Printf.sprintf "cannot listen on %s: %s" path
                (Unix.error_message e)))));
  sock

let run_socket ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit cfg ~path () =
  with_sigpipe_ignored @@ fun () ->
  let sock = listen_socket ~path in
  Unix.set_nonblock sock;
  (* Workers are spawned (and respawned) while connections are open;
     any fd not marked cloexec leaks into them. A worker holding a
     duplicate of a client's socket keeps that client from ever seeing
     EOF after the coordinator closes its copy. *)
  Unix.set_close_on_exec sock;
  let t =
    create ?stop ?manifest ?on_spawn ?chaos ?cache_dir ?jit ~nonblocking:true
      cfg
  in
  let conns = ref [] in
  let next_cid = ref 0 in
  let close_conn c =
    if not c.closed then begin
      c.closed <- true;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Format.eprintf "disesim serve: connection %d done: %a@." c.cid
        Server.pp_summary c.tally
    end
  in
  let fail_conn c reason =
    if not c.closed then begin
      Resilience.Counters.incr Resilience.Counters.conn_failures;
      Format.eprintf "disesim serve: connection %d failed (isolated): %s@."
        c.cid reason;
      c.closed <- true;
      c.eof <- true;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      (* The peer is gone for good (a half-closed client keeps its
         admission until each job completes; this path is hard
         failure), so holding quota for work whose answers can never
         be delivered would starve the tenant's later connections.
         Releases are idempotent, so the worker responses that still
         arrive for these slots release nothing twice. *)
      Hashtbl.iter (fun _ release -> release ()) c.releases;
      Hashtbl.reset c.releases;
      Queue.clear c.backlog
    end
  in
  (* Per-connection backpressure: admit framed jobs only while fewer
     than [queue] are in flight, the same window a stdio chunk gets. *)
  let admit_backlog c =
    while
      (not c.closed)
      && c.pending < t.cfg.Serve_config.queue
      && not (Queue.is_empty c.backlog)
    do
      handle_job t c (Queue.pop c.backlog)
    done
  in
  let accept_all () =
    let continue = ref true in
    while !continue do
      match Unix.accept sock with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> continue := false
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "disesim serve: accept failed: %s@."
          (Unix.error_message e);
        continue := false
      | fd, _ ->
        Unix.set_nonblock fd;
        Unix.set_close_on_exec fd;
        let cid = !next_cid in
        incr next_cid;
        conns :=
          {
            fd;
            cid;
            lines = Server.Lines.create ();
            cout = outstream ();
            next_slot = 0;
            next_emit = 0;
            ready = Hashtbl.create 16;
            releases = Hashtbl.create 16;
            backlog = Queue.create ();
            pending = 0;
            eof = false;
            closed = false;
            tally = Server.empty_summary;
          }
          :: !conns
    done
  in
  let read_conn c =
    match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (e, _, _) -> fail_conn c (Unix.error_message e)
    | 0 ->
      c.eof <- true;
      List.iter (fun p -> Queue.push p c.backlog) (Server.Lines.close c.lines);
      admit_backlog c
    | n ->
      List.iter
        (fun p -> Queue.push p c.backlog)
        (Server.Lines.feed c.lines (Bytes.sub_string t.scratch 0 n));
      admit_backlog c
  in
  let write_conn c =
    match out_write c.fd c.cout with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) -> fail_conn c (Unix.error_message e)
  in
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let rec loop () =
        if Server.Stop.signalled t.stop then
          (* Graceful drain: no new reads; in-flight work completes
             and flushes, then the loop exits. *)
          List.iter (fun c -> c.eof <- true) !conns;
        List.iter admit_backlog !conns;
        List.iter
          (fun c ->
            if
              (not c.closed) && c.eof && c.pending = 0
              && Queue.is_empty c.backlog
              && not (out_pending c.cout)
            then close_conn c)
          !conns;
        (* A failed connection stays until its in-flight jobs are
           answered, so its tally is complete when it retires. *)
        conns :=
          List.filter
            (fun c ->
              let retired = c.closed && c.pending = 0 in
              if retired then t.written <- add_summary t.written c.tally;
              not retired)
            !conns;
        if not (Server.Stop.signalled t.stop && !conns = []) then begin
          supervise t;
          Array.iter (fun w -> flush_worker t w) t.workers;
          let stopping = Server.Stop.signalled t.stop in
          let rs =
            (if stopping then [] else [ sock ])
            @ List.filter_map
                (fun c ->
                  (* Per-connection backpressure: stop reading a
                     connection that already has [queue] jobs in
                     flight or framed jobs waiting; bytes wait in the
                     kernel buffer. *)
                  if
                    (not c.eof)
                    && c.pending < t.cfg.Serve_config.queue
                    && Queue.is_empty c.backlog
                  then Some c.fd
                  else None)
                !conns
            @ (Array.to_list t.workers
              |> List.filter_map (fun w -> if w.alive then Some w.from_w else None))
          in
          let ws =
            List.filter_map
              (fun c ->
                if (not c.closed) && out_pending c.cout then Some c.fd else None)
              !conns
            @ (Array.to_list t.workers
              |> List.filter_map (fun w ->
                     if w.alive && out_pending w.wout then Some w.to_w else None))
          in
          (match Unix.select rs ws [] 0.25 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | rready, wready, _ ->
            if List.mem sock rready then accept_all ();
            Array.iter
              (fun w -> if w.alive && List.mem w.from_w rready then pump_worker t w)
              t.workers;
            List.iter
              (fun c -> if (not c.closed) && List.mem c.fd rready then read_conn c)
              !conns;
            Array.iter
              (fun w -> if w.alive && List.mem w.to_w wready then flush_worker t w)
              t.workers;
            List.iter
              (fun c -> if (not c.closed) && List.mem c.fd wready then write_conn c)
              !conns);
          loop ()
        end
      in
      loop ();
      shutdown t t.written)
