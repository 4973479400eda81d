(* Tests for the sharded serve tier and its redesigned API surface:
   the serializable Serve_config, the consistent-hash ring, the
   versioned wire envelope, tier-wide admission, and the coordinator
   end to end (including worker crash recovery). The coordinator
   spawns real worker processes — re-executions of this test binary,
   dispatched by the Coordinator.worker_child_main hook at the top of
   test_main.ml. *)

module Json = Dise_telemetry.Json
module Json_schema = Dise_telemetry.Json_schema
module Manifest = Dise_telemetry.Manifest
module Diag = Dise_isa.Diag
module Request = Dise_service.Request
module Cache = Dise_service.Cache
module Server = Dise_service.Server
module Serve_config = Dise_service.Serve_config
module Shard = Dise_service.Shard
module Coordinator = Dise_service.Coordinator
module Resilience = Dise_service.Resilience
module Journal = Resilience.Journal
module Chaos = Resilience.Chaos

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let tmp_counter = ref 0

let with_temp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dise-coordinator-test-%d-%d" (Unix.getpid ())
         !tmp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let with_chaos spec f =
  Unix.putenv Chaos.env_var spec;
  Fun.protect ~finally:(fun () -> Unix.putenv Chaos.env_var "") f

let load_schema name =
  let path = Filename.concat "../doc/schema" name in
  let ic = open_in path in
  Json.parse
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let assert_valid ~schema v =
  match Json_schema.validate ~schema v with
  | [] -> ()
  | errs ->
    Alcotest.fail
      (Format.asprintf "document fails schema: %a"
         (Format.pp_print_list Json_schema.pp_error)
         errs)

let member name j = Option.get (Json.member name j)
let kind_of r = Json.member "kind" (member "error" r)

(* --- Serve_config -------------------------------------------------------- *)

let test_serve_config_roundtrip () =
  let cfg =
    Serve_config.of_flags ~workers:3 ~jobs:2 ~deadline_ms:500 ~shed_above:9_000
      ~tenant_quota:4 ~journal:"/tmp/j" ~breaker:5 ()
  in
  check int_ "jobs-only queue default is 4x" 8 cfg.Serve_config.queue;
  let j = Serve_config.to_json cfg in
  assert_valid ~schema:(load_schema "serve_config.schema.json") j;
  (match Serve_config.of_json j with
  | Ok cfg' -> check bool_ "canonical JSON round-trips" true (cfg = cfg')
  | Error d -> Alcotest.fail ("canonical form rejected: " ^ Diag.to_string d));
  (* defaults validate too, and an empty document means the defaults *)
  assert_valid
    ~schema:(load_schema "serve_config.schema.json")
    (Serve_config.to_json (Serve_config.default ()));
  (match Serve_config.of_json (Json.Obj []) with
  | Ok cfg' ->
    check bool_ "empty config is the default" true
      (cfg' = Serve_config.default ())
  | Error d -> Alcotest.fail ("empty config rejected: " ^ Diag.to_string d));
  (* flags override a file config; --jobs re-derives the queue *)
  let over = Serve_config.override cfg ~jobs:5 ~workers:0 () in
  check int_ "override jobs" 5 over.Serve_config.jobs;
  check int_ "override re-derives queue" 20 over.Serve_config.queue;
  check bool_ "untouched members survive override" true
    (over.Serve_config.deadline_ms = Some 500
    && over.Serve_config.tenant_quota = Some 4);
  (* defects are parse errors, not crashes *)
  (match Serve_config.of_json (Json.Obj [ ("worker", Json.Int 2) ]) with
  | Error (Diag.Parse _) -> ()
  | _ -> Alcotest.fail "unknown member accepted");
  match Serve_config.of_json (Json.Obj [ ("jobs", Json.String "2") ]) with
  | Error (Diag.Parse _) -> ()
  | _ -> Alcotest.fail "mistyped member accepted"

(* --- the consistent-hash ring -------------------------------------------- *)

let test_shard_routing () =
  let keys = List.init 1000 (fun i -> Printf.sprintf "key-%d" i) in
  let ring = Shard.ring ~workers:4 () in
  let ring' = Shard.ring ~workers:4 () in
  check int_ "ring knows its width" 4 (Shard.workers ring);
  (* determinism: routing is a pure function of (workers, key) *)
  List.iter
    (fun k ->
      check int_ (k ^ " routes identically on a rebuilt ring")
        (Shard.route ring k) (Shard.route ring' k))
    keys;
  (* coverage: every worker owns a live slice of the keyspace *)
  let counts = Array.make 4 0 in
  List.iter (fun k -> counts.(Shard.route ring k) <- counts.(Shard.route ring k) + 1) keys;
  Array.iteri
    (fun w c ->
      check bool_ (Printf.sprintf "worker %d owns a nonempty slice (%d)" w c)
        true (c > 0))
    counts;
  (* consistency: growing the tier only moves keys onto the new
     worker — nothing reshuffles between the survivors *)
  let grown = Shard.ring ~workers:5 () in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Shard.route ring k and after = Shard.route grown k in
      if before <> after then begin
        incr moved;
        check int_ (k ^ " may only move to the new worker") 4 after
      end)
    keys;
  check bool_
    (Printf.sprintf "a minority of keys moved (%d/1000)" !moved)
    true
    (!moved > 0 && !moved < 500)

(* --- the versioned wire envelope ----------------------------------------- *)

let test_envelope_versions () =
  let p =
    Server.parse_job ~lineno:1 {|{"id":1,"bench":"tiny","dyn_target":23000}|}
  in
  check int_ "unversioned line is dialect v0" 0 p.Server.version;
  check bool_ "v0 line decodes" true (Result.is_ok p.Server.req);
  let p =
    Server.parse_job ~lineno:1
      {|{"v":1,"id":1,"bench":"tiny","dyn_target":23000}|}
  in
  check int_ "v:1 line is dialect v1" 1 p.Server.version;
  check bool_ "v1 line decodes" true (Result.is_ok p.Server.req);
  check bool_ "tenant defaults to anonymous" true (p.Server.tenant = None);
  let p =
    Server.parse_job ~lineno:1
      {|{"v":1,"tenant":"acme","id":1,"bench":"tiny","dyn_target":23000}|}
  in
  check bool_ "tenant member decoded" true (p.Server.tenant = Some "acme");
  (* anything but an absent v or v:1 is a parse error, including an
     explicit v:0 — v0 clients are recognized by saying nothing *)
  List.iter
    (fun line ->
      match (Server.parse_job ~lineno:1 line).Server.req with
      | Error (Diag.Parse _) -> ()
      | _ -> Alcotest.fail ("accepted bad envelope: " ^ line))
    [
      {|{"v":2,"id":1,"bench":"tiny","dyn_target":23000}|};
      {|{"v":0,"id":1,"bench":"tiny","dyn_target":23000}|};
      {|{"v":"1","id":1,"bench":"tiny","dyn_target":23000}|};
      {|{"tenant":3,"id":1,"bench":"tiny","dyn_target":23000}|};
    ]

(* Serve a list of lines through a single-process session and return
   (summary, responses). *)
let serve ?cfg ?manifest lines =
  with_temp_dir (fun dir ->
      let inp = Filename.concat dir "in.jsonl" in
      let outp = Filename.concat dir "out.jsonl" in
      let oc = open_out_bin inp in
      output_string oc (String.concat "\n" lines ^ "\n");
      close_out oc;
      let ic = open_in inp in
      let oc = open_out outp in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () ->
            let cfg = Option.value cfg ~default:(Serve_config.default ()) in
            Server.serve_channel (Server.session ?manifest cfg) ic oc)
      in
      let ic = open_in outp in
      let rec read acc =
        match input_line ic with
        | line -> read (Json.parse line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let responses =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read [])
      in
      (summary, responses))

let job ?v ?tenant ?(dyn = 23_000) id =
  let v = match v with None -> "" | Some v -> Printf.sprintf {|"v":%d,|} v in
  let tenant =
    match tenant with
    | None -> ""
    | Some t -> Printf.sprintf {|"tenant":"%s",|} t
  in
  Printf.sprintf {|{%s%s"id":%d,"bench":"tiny","dyn_target":%d}|} v tenant id
    dyn

let test_v0_compat () =
  (* one legacy line and one v1 line in the same stream: both served,
     and every response speaks v1 *)
  let _, rs = serve [ job ~dyn:23_001 1; job ~v:1 ~dyn:23_002 2 ] in
  check int_ "both dialects served" 2 (List.length rs);
  let schema = load_schema "serve_response.schema.json" in
  List.iter
    (fun r ->
      check bool_ "response leads with v:1" true
        (Json.member "v" r = Some (Json.Int 1));
      check bool_ "response ok" true (member "ok" r = Json.Bool true);
      assert_valid ~schema r)
    rs

(* --- tenant quotas ------------------------------------------------------- *)

let test_tenant_quota_order () =
  let lines =
    [
      job ~tenant:"acme" ~dyn:23_011 1;
      job ~tenant:"acme" ~dyn:23_012 2;
      job ~tenant:"acme" ~dyn:23_013 3;
      job ~tenant:"globex" ~dyn:23_014 4;
      job ~dyn:23_015 5;
    ]
  in
  let summary, rs =
    serve
      ~cfg:(Serve_config.of_flags ~jobs:1 ~queue:8 ~tenant_quota:1 ())
      lines
  in
  check int_ "five responses" 5 (List.length rs);
  check int_ "two acme jobs over quota" 2 summary.Server.shed;
  match rs with
  | [ r1; r2; r3; r4; r5 ] ->
    (* input order is preserved even though 2 and 3 never ran *)
    List.iteri
      (fun i r ->
        check bool_
          (Printf.sprintf "response %d keeps its slot" (i + 1))
          true
          (member "id" r = Json.Int (i + 1)))
      [ r1; r2; r3; r4; r5 ];
    check bool_ "first acme job admitted" true (member "ok" r1 = Json.Bool true);
    List.iter
      (fun r ->
        check bool_ "over-quota job answered overloaded" true
          (member "ok" r = Json.Bool false
          && kind_of r = Some (Json.String "overloaded"));
        match Json.member "message" (member "error" r) with
        | Some (Json.String msg) ->
          let contains sub =
            let n = String.length sub in
            let rec find i =
              i + n <= String.length msg
              && (String.sub msg i n = sub || find (i + 1))
            in
            find 0
          in
          check bool_
            (Printf.sprintf "quota message names the policy (got %S)" msg)
            true
            (contains "tenant quota")
        | _ -> Alcotest.fail "no quota message")
      [ r2; r3 ];
    check bool_ "other tenant unaffected" true (member "ok" r4 = Json.Bool true);
    check bool_ "anonymous tenant unaffected" true
      (member "ok" r5 = Json.Bool true)
  | _ -> Alcotest.fail "wrong response count"

(* --- the coordinator, end to end ----------------------------------------- *)

(* Run [lines] through a real worker tier and return
   (summary, responses, manifest records). *)
let serve_sharded ?on_spawn ?journal ?chaos ?heartbeat_ms ?tenant_quota
    ?shed_above ~workers lines =
  with_temp_dir (fun dir ->
      let inp = Filename.concat dir "in.jsonl" in
      let outp = Filename.concat dir "out.jsonl" in
      let oc = open_out_bin inp in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let mbuf = Buffer.create 4096 in
      let manifest = Manifest.to_buffer mbuf in
      let cfg =
        Serve_config.of_flags ~workers ~jobs:1 ~queue:16 ?journal
          ?heartbeat_ms ?tenant_quota ?shed_above ()
      in
      let ic = open_in inp in
      let oc = open_out outp in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () ->
            Coordinator.run_channel ?on_spawn ?chaos ~manifest
              ~cache_dir:(Filename.concat dir "cache")
              cfg ic oc)
      in
      let ic = open_in outp in
      let rec read acc =
        match input_line ic with
        | line -> read (Json.parse line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let responses =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read [])
      in
      let records =
        String.split_on_char '\n' (Buffer.contents mbuf)
        |> List.filter (fun l -> l <> "")
        |> List.map Json.parse
      in
      (summary, responses, records))

let merged_record records =
  match
    List.find_opt
      (fun r -> Json.member "record" r = Some (Json.String "serve_summary"))
      records
  with
  | Some r -> r
  | None -> Alcotest.fail "no serve_summary record in manifest"

let test_coordinator_end_to_end () =
  let lines = List.init 8 (fun i -> job ~dyn:(24_001 + i) (i + 1)) in
  let summary, rs, records = serve_sharded ~workers:2 lines in
  check int_ "all jobs served" 8 summary.Server.served;
  check int_ "no errors" 0 summary.Server.errors;
  check int_ "eight responses" 8 (List.length rs);
  let schema = load_schema "serve_response.schema.json" in
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d in input order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true);
      assert_valid ~schema r)
    rs;
  let record = merged_record records in
  assert_valid ~schema:(load_schema "serve_summary.schema.json") record;
  check bool_ "merged record counts the stream" true
    (Json.member "served" record = Some (Json.Int 8));
  match Json.member "workers" record with
  | Some (Json.List ws) ->
    check int_ "one breakdown entry per worker" 2 (List.length ws);
    let served_by w =
      match Json.member "served" w with Some (Json.Int n) -> n | _ -> 0
    in
    check int_ "every job reached exactly one shard" 8
      (List.fold_left (fun acc w -> acc + served_by w) 0 ws);
    (* 8 distinct keys over 64 vnodes/worker: both shards should see
       work — the balance test above makes a pathological split
       vanishingly unlikely *)
    check bool_ "work spread across shards" true
      (List.for_all (fun w -> served_by w > 0) ws)
  | _ -> Alcotest.fail "merged record lacks a workers array"

let test_coordinator_crash_recovery () =
  (* Stall job 1 in its worker, then SIGKILL every initially-spawned
     worker mid-batch: the coordinator must respawn, the replacements
     must replay their journal shards, and every job must still get
     its answer in order. *)
  with_temp_dir (fun jdir ->
      with_chaos "sleep=1:1500" (fun () ->
          let initial = ref [] in
          let spawns = ref 0 in
          let m = Mutex.create () in
          let on_spawn ~shard:_ ~pid =
            Mutex.lock m;
            incr spawns;
            if !spawns <= 2 then initial := pid :: !initial;
            Mutex.unlock m
          in
          let killer =
            Domain.spawn (fun () ->
                Unix.sleepf 0.4;
                Mutex.lock m;
                let victims = !initial in
                Mutex.unlock m;
                List.iter
                  (fun pid ->
                    try Unix.kill pid Sys.sigkill
                    with Unix.Unix_error _ -> ())
                  victims)
          in
          let lines = List.init 6 (fun i -> job ~dyn:(24_101 + i) (i + 1)) in
          let summary, rs, records =
            serve_sharded ~on_spawn ~workers:2
              ~journal:(Filename.concat jdir "journal")
              lines
          in
          Domain.join killer;
          check int_ "all jobs answered despite the kill" 6
            summary.Server.served;
          check int_ "no errors surfaced" 0 summary.Server.errors;
          List.iteri
            (fun i r ->
              check bool_
                (Printf.sprintf "response %d ok and in order" (i + 1))
                true
                (member "id" r = Json.Int (i + 1)
                && member "ok" r = Json.Bool true))
            rs;
          let record = merged_record records in
          assert_valid ~schema:(load_schema "serve_summary.schema.json") record;
          match Json.member "workers" record with
          | Some (Json.List ws) ->
            let restarts =
              List.fold_left
                (fun acc w ->
                  match Json.member "restarts" w with
                  | Some (Json.Int n) -> acc + n
                  | _ -> acc)
                0 ws
            in
            check bool_
              (Printf.sprintf "the tier restarted workers (%d)" restarts)
              true (restarts >= 1)
          | _ -> Alcotest.fail "merged record lacks a workers array"))

let test_coordinator_journal_shard_replay () =
  (* Plant begun-but-not-done entries in one shard's journal — the
     leftovers of a crash — and start an empty-stream tier over the
     same root: the owning worker must replay exactly those jobs, and
     the count must surface in the merged counters. *)
  with_temp_dir (fun root ->
      let jroot = Filename.concat root "journal" in
      let shard_dir = Filename.concat jroot "worker-1" in
      let j = Journal.open_ ~dir:shard_dir in
      for i = 1 to 3 do
        ignore
          (Journal.append_begin j
             (Json.parse (job ~dyn:(24_201 + i) i)))
      done;
      Journal.sync j;
      Journal.close j;
      let summary, rs, records =
        serve_sharded ~workers:2 ~journal:jroot []
      in
      check int_ "empty stream serves nothing" 0 summary.Server.served;
      check int_ "no responses" 0 (List.length rs);
      let record = merged_record records in
      match Json.member "counters" record with
      | Some (Json.Obj counters) ->
        check bool_
          (Printf.sprintf "merged counters report the shard's replay (%s)"
             (Json.to_string (Json.Obj counters)))
          true
          (List.assoc_opt "journal_replayed" counters = Some (Json.Int 3))
      | _ -> Alcotest.fail "merged record lacks counters")

(* --- socket-mode harness ------------------------------------------------- *)

(* Run the socket front end on a background domain and hand the test
   body a connector; stop and join on the way out. *)
let with_socket_tier ?(cfg = Serve_config.of_flags ~workers:1 ~jobs:1 ())
    body =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "tier.sock" in
      let stop = Server.Stop.create () in
      let tier =
        Domain.spawn (fun () ->
            Coordinator.run_socket ~stop ~cache_dir:(Filename.concat dir "cache")
              cfg ~path ())
      in
      let rec wait_sock n =
        if n = 0 then Alcotest.fail "socket never appeared";
        if not (Sys.file_exists path) then begin
          Unix.sleepf 0.05;
          wait_sock (n - 1)
        end
      in
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      let send fd line = ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1)) in
      let recv_line fd =
        let buf = Buffer.create 256 in
        let b = Bytes.create 1 in
        let rec go () =
          match Unix.read fd b 0 1 with
          | 0 -> None
          | _ ->
            if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
            else begin
              Buffer.add_char buf (Bytes.get b 0);
              go ()
            end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ()
      in
      Fun.protect
        ~finally:(fun () ->
          Server.Stop.signal stop;
          ignore (Domain.join tier))
        (fun () ->
          wait_sock 100;
          body ~connect ~send ~recv_line))

(* A connection that dies {e hard} (write failure, not a polite EOF)
   while a slow job is in flight must not pin its tenant's quota for
   the rest of the job's lifetime. Job 7 stalls in its worker for
   seconds; planting a parse-error line just before closing makes the
   coordinator's response write fail, so the connection takes the
   [fail_conn] path with job 7 still holding acme's only quota slot.
   Pre-fix, client B's same-tenant job is answered [overloaded]. *)
let test_quota_released_on_conn_failure () =
  with_chaos "sleep=7:2500" (fun () ->
      with_socket_tier
        ~cfg:(Serve_config.of_flags ~workers:1 ~jobs:1 ~tenant_quota:1 ())
        (fun ~connect ~send ~recv_line ->
          let a = connect () in
          (* Shut the receive side down first, then pipeline a
             parse-error line ahead of the slow job. The parse error
             is answered immediately (it is slot 0, so the in-order
             emitter flushes it without waiting on a worker), the
             write raises EPIPE against the shut-down reader, and the
             connection takes the hard-failure path while job 7 still
             holds acme's quota inside its worker. *)
          Unix.shutdown a Unix.SHUTDOWN_RECEIVE;
          send a ("{\n" ^ job ~v:1 ~tenant:"acme" ~dyn:23_500 7);
          Unix.sleepf 0.5;
          Unix.close a;
          let b = connect () in
          send b (job ~v:1 ~tenant:"acme" ~dyn:23_501 8);
          (match recv_line b with
          | Some l ->
            let r = Json.parse l in
            check bool_
              (Printf.sprintf
                 "same-tenant job admitted after the hard disconnect (got %s)"
                 l)
              true
              (member "ok" r = Json.Bool true)
          | None -> Alcotest.fail "no response to job 8");
          Unix.close b))

(* --- write_all on a nonblocking descriptor -------------------------------- *)

(* The coordinator marks its pipe ends O_NONBLOCK, and status flags
   belong to the open file description — so [write_all] must survive a
   full pipe (EAGAIN mid-frame) without tearing or dropping bytes.
   1 MiB through a ~64 KiB pipe against a deliberately slow reader
   guarantees the writer sees EAGAIN many times; pre-fix the
   Unix_error escapes and the test fails. *)
let test_write_all_nonblocking_pipe () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock w;
  let total = 1 lsl 20 in
  let payload = String.init total (fun i -> Char.chr (i land 0xff)) in
  let reader =
    Domain.spawn (fun () ->
        let buf = Bytes.create 4096 in
        let count = ref 0 in
        let ok = ref true in
        let continue = ref true in
        while !continue do
          (* throttle so the pipe stays full on the writer's side *)
          Unix.sleepf 0.001;
          match Unix.read r buf 0 (Bytes.length buf) with
          | 0 -> continue := false
          | n ->
            for i = 0 to n - 1 do
              if Bytes.get buf i <> Char.chr ((!count + i) land 0xff) then
                ok := false
            done;
            count := !count + n
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        (!count, !ok))
  in
  Coordinator.write_all w payload 0;
  Unix.close w;
  let count, ok = Domain.join reader in
  Unix.close r;
  check int_ "every byte arrived" total count;
  check bool_ "bytes arrived in order, untorn" true ok

(* --- journal replay across a worker-count change -------------------------- *)

let plant_journal ~jroot ~shard entries =
  let dir = Filename.concat jroot (Printf.sprintf "worker-%d" shard) in
  let j = Journal.open_ ~dir in
  List.iter (fun doc -> ignore (Journal.append_begin j doc)) entries;
  Journal.sync j;
  Journal.close j

(* A tier that crashed at --workers 3 left entries in worker-0/1/2;
   restarting at --workers 2 must replay {e all} of them — routed by
   the current ring — not just the two directories whose names happen
   to match a live shard. Pre-fix, worker-2's journal is orphaned and
   only 4 of the 6 jobs replay. *)
let test_coordinator_journal_reshard_replay () =
  with_temp_dir (fun root ->
      let jroot = Filename.concat root "journal" in
      List.iter
        (fun shard ->
          plant_journal ~jroot ~shard
            [
              Json.parse (job ~dyn:(24_301 + (2 * shard)) ((2 * shard) + 1));
              Json.parse (job ~dyn:(24_302 + (2 * shard)) ((2 * shard) + 2));
            ])
        [ 0; 1; 2 ];
      let summary, rs, records = serve_sharded ~workers:2 ~journal:jroot [] in
      check int_ "empty stream serves nothing" 0 summary.Server.served;
      check int_ "no responses" 0 (List.length rs);
      let record = merged_record records in
      match Json.member "counters" record with
      | Some (Json.Obj counters) ->
        check bool_
          (Printf.sprintf
             "all three crashed shards replay through the new ring (%s)"
             (Json.to_string (Json.Obj counters)))
          true
          (List.assoc_opt "journal_replayed" counters = Some (Json.Int 6))
      | _ -> Alcotest.fail "merged record lacks counters")

(* --- ring shrink: the failover movement property -------------------------- *)

let test_shard_shrink () =
  let keys = List.init 1000 (fun i -> Printf.sprintf "shrink-key-%d" i) in
  let ring = Shard.ring ~workers:4 () in
  check bool_ "fresh ring lists every worker" true
    (Shard.alive ring = [ 0; 1; 2; 3 ]);
  let dead = 2 in
  let shrunk = Shard.remove ring dead in
  check bool_ "survivors only" true (Shard.alive shrunk = [ 0; 1; 3 ]);
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Shard.route ring k in
      let after = Shard.route shrunk k in
      if before = dead then begin
        incr moved;
        check bool_ (k ^ " moves off the dead worker") true (after <> dead);
        (* ...and lands exactly where [next ~avoid] predicted: the
           hedge target IS the failover inheritor *)
        check bool_ (k ^ " inherited by the hedge target") true
          (Shard.next ring k ~avoid:dead = Some after)
      end
      else
        check int_ (k ^ " stays put when its owner survives") before after)
    keys;
  check bool_
    (Printf.sprintf "only the dead worker's slice moved (%d/1000)" !moved)
    true
    (!moved > 0 && !moved < 500);
  (* removing an absent worker is the identity *)
  let again = Shard.remove shrunk dead in
  List.iter
    (fun k ->
      check int_ (k ^ " unchanged by removing an absent worker")
        (Shard.route shrunk k) (Shard.route again k))
    keys;
  (* the ring refuses to become empty *)
  let one = Shard.remove (Shard.remove shrunk 0) 1 in
  check bool_ "one survivor owns everything" true
    (List.for_all (fun k -> Shard.route one k = 3) keys);
  check bool_ "no hedge target on a ring of one" true
    (Shard.next one "anything" ~avoid:3 = None);
  match Shard.remove one 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removing the last worker must raise"

(* --- gray failure: hedged requests are deduplicated ----------------------- *)

(* Both workers are forced Suspect every tick while one job is stalled
   by a chaos directive, so the supervision pass hedges the stalled
   request onto the sibling — and both legs eventually answer. The
   client contract: every job exactly one response, in order, both
   envelope dialects. *)
let test_hedge_dedup () =
  with_chaos "sleep=3:1200" (fun () ->
      let hedges0 = Resilience.Counters.get Resilience.Counters.hedges in
      let chaos ~requests:_ =
        [
          Coordinator.Chaos_suspect { shard = 0 };
          Coordinator.Chaos_suspect { shard = 1 };
        ]
      in
      let lines =
        [
          job ~dyn:25_001 1;
          job ~v:1 ~dyn:25_002 2;
          job ~dyn:25_003 3;
          (* the stalled one *)
          job ~v:1 ~dyn:25_004 4;
          job ~dyn:25_005 5;
        ]
      in
      let summary, rs, records =
        serve_sharded ~workers:2 ~heartbeat_ms:100 ~chaos lines
      in
      check int_ "five jobs served" 5 summary.Server.served;
      check int_ "no errors" 0 summary.Server.errors;
      check int_ "exactly one response per job" 5 (List.length rs);
      List.iteri
        (fun i r ->
          check bool_
            (Printf.sprintf "response %d ok, in order, v1" (i + 1))
            true
            (member "id" r = Json.Int (i + 1)
            && member "ok" r = Json.Bool true
            && Json.member "v" r = Some (Json.Int 1)))
        rs;
      let hedged = Resilience.Counters.get Resilience.Counters.hedges in
      check bool_
        (Printf.sprintf "the stalled request was hedged (%d)"
           (hedged - hedges0))
        true
        (hedged - hedges0 >= 1);
      assert_valid
        ~schema:(load_schema "serve_summary.schema.json")
        (merged_record records))

(* --- live failover: a permanent kill leaves a degraded tier --------------- *)

let test_failover_degraded () =
  with_temp_dir (fun jdir ->
      let failovers0 = Resilience.Counters.get Resilience.Counters.failovers in
      let killed = ref None in
      let m = Mutex.create () in
      (* kill shard 1 for good once the stream is flowing *)
      let chaos ~requests =
        Mutex.lock m;
        let acts =
          if requests >= 3 && !killed = None then begin
            killed := Some 1;
            [ Coordinator.Chaos_kill { shard = 1; permanent = true } ]
          end
          else []
        in
        Mutex.unlock m;
        acts
      in
      let lines = List.init 10 (fun i -> job ~dyn:(25_101 + i) (i + 1)) in
      let summary, rs, records =
        serve_sharded ~workers:3 ~heartbeat_ms:100 ~chaos
          ~journal:(Filename.concat jdir "journal")
          lines
      in
      check int_ "all jobs served degraded" 10 summary.Server.served;
      check int_ "no client-visible errors" 0 summary.Server.errors;
      List.iteri
        (fun i r ->
          check bool_
            (Printf.sprintf "response %d ok and in order" (i + 1))
            true
            (member "id" r = Json.Int (i + 1)
            && member "ok" r = Json.Bool true))
        rs;
      check bool_ "a failover was recorded" true
        (Resilience.Counters.get Resilience.Counters.failovers - failovers0
        >= 1);
      let record = merged_record records in
      assert_valid ~schema:(load_schema "serve_summary.schema.json") record;
      match Json.member "topology" record with
      | Some topo ->
        check bool_ "tier reports degraded" true
          (member "degraded" topo = Json.Bool true);
        check bool_ "shard 1 listed dead" true
          (match member "dead" topo with
          | Json.List l -> List.mem (Json.Int 1) l
          | _ -> false);
        check bool_ "shard 1 off the alive list" true
          (match member "alive" topo with
          | Json.List l -> not (List.mem (Json.Int 1) l)
          | _ -> false)
      | None -> Alcotest.fail "merged record lacks a topology member")

(* --- torn frames: discarded and resubmitted, never parsed ----------------- *)

let test_torn_frame_resubmit () =
  let torn0 = Resilience.Counters.get Resilience.Counters.torn_frames in
  let tore = ref false in
  let m = Mutex.create () in
  let chaos ~requests =
    Mutex.lock m;
    let acts =
      if requests >= 2 && not !tore then begin
        tore := true;
        (* cut = 2: the worker dies two bytes into a frame header *)
        [ Coordinator.Chaos_torn { shard = 0; cut = 2 } ]
      end
      else []
    in
    Mutex.unlock m;
    acts
  in
  let lines = List.init 6 (fun i -> job ~dyn:(25_201 + i) (i + 1)) in
  let summary, rs, _ = serve_sharded ~workers:2 ~chaos lines in
  check int_ "all jobs served across the tear" 6 summary.Server.served;
  check int_ "no errors from the torn stream" 0 summary.Server.errors;
  List.iteri
    (fun i r ->
      check bool_
        (Printf.sprintf "response %d ok and in order" (i + 1))
        true
        (member "id" r = Json.Int (i + 1) && member "ok" r = Json.Bool true))
    rs;
  check bool_ "the tear was counted" true
    (Resilience.Counters.get Resilience.Counters.torn_frames - torn0 >= 1)

(* --- scheduled chaos: exactly-once under kill+stall+torn, twice ----------- *)

(* The full deterministic chaos matrix lives in lib/fuzz (and runs as
   [disesim fuzz --chaos] in CI); this drives it from the tier-1 suite
   so a regression in exactly-once delivery or replay determinism
   fails the default test run. *)
let test_scheduled_chaos () =
  let report = Dise_fuzz.Faults.chaos_faults ~seed:5 in
  check bool_
    (Format.asprintf "%a" Dise_fuzz.Faults.pp_report report)
    true
    (report.Dise_fuzz.Faults.failures = [])

(* --- journal recovery across serving modes ------------------------------ *)

(* Restore the process-wide cache and breaker a test's bootstrap
   installed. *)
let with_saved_cache f =
  let cache = Request.disk_cache () and breaker = Request.cache_breaker () in
  Fun.protect
    ~finally:(fun () ->
      Request.set_disk_cache cache;
      Request.set_cache_breaker breaker;
      Request.clear_memory ())
    f

(* An in-process server that crashed left its journal at the root
   ([<root>/journal.jsonl]); a tier started on the same root must
   replay it through its ring. *)
let test_tier_replays_root_journal () =
  with_temp_dir (fun dir ->
      let jroot = Filename.concat dir "journal" in
      let cdir = Filename.concat dir "cache" in
      let req = Request.v ~dyn_target:24_401 "tiny" in
      let j = Journal.open_ ~dir:jroot in
      ignore (Journal.append_begin j (Request.to_json req));
      Journal.close j;
      let empty = Filename.concat dir "empty.jsonl" in
      close_out (open_out empty);
      let mbuf = Buffer.create 4096 in
      let ic = open_in empty and oc = open_out (Filename.concat dir "out.jsonl") in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () ->
            Coordinator.run_channel ~manifest:(Manifest.to_buffer mbuf)
              ~cache_dir:cdir
              (Serve_config.of_flags ~workers:1 ~jobs:1 ~journal:jroot ())
              ic oc)
      in
      check int_ "empty stream serves nothing" 0 summary.Server.served;
      let record =
        merged_record
          (String.split_on_char '\n' (Buffer.contents mbuf)
          |> List.filter (fun l -> l <> "")
          |> List.map Json.parse)
      in
      (match Json.member "counters" record with
      | Some (Json.Obj counters) ->
        check bool_ "the root-level entry replayed" true
          (List.assoc_opt "journal_replayed" counters = Some (Json.Int 1))
      | _ -> Alcotest.fail "merged record lacks counters");
      check bool_ "replayed job landed in the result cache" true
        (Cache.find (Cache.create ~dir:cdir) ~key:(Request.key req) <> None);
      check int_ "root journal cleared" 0 (List.length (Journal.pending ~dir:jroot)))

(* The reverse: a tier that crashed left a [worker-0] shard; the
   in-process stdio server started on the same root must replay it. *)
let test_inproc_replays_shard_journal () =
  with_temp_dir (fun dir ->
      let jroot = Filename.concat dir "journal" in
      let cdir = Filename.concat dir "cache" in
      let req = Request.v ~dyn_target:24_402 "tiny" in
      plant_journal ~jroot ~shard:0 [ Request.to_json req ];
      with_saved_cache (fun () ->
          let cfg = Serve_config.of_flags ~jobs:1 ~journal:jroot ~breaker:0 () in
          let replayed () =
            Resilience.Counters.get Resilience.Counters.journal_replayed
          in
          let replayed0 = replayed () in
          let journal = Server.bootstrap ~cache_dir:(Some cdir) cfg in
          let empty = Filename.concat dir "empty.jsonl" in
          close_out (open_out empty);
          let ic = open_in empty and oc = open_out (Filename.concat dir "out.jsonl") in
          let summary =
            Fun.protect
              ~finally:(fun () ->
                Option.iter Journal.close journal;
                close_in_noerr ic;
                close_out_noerr oc)
              (fun () -> Server.serve_channel (Server.session ?journal cfg) ic oc)
          in
          check int_ "empty stream serves nothing" 0 summary.Server.served;
          check int_ "the worker-0 entry replayed" 1 (replayed () - replayed0);
          check bool_ "replayed job landed in the result cache" true
            (Cache.find (Cache.create ~dir:cdir) ~key:(Request.key req) <> None);
          check int_ "shard journal cleared" 0
            (List.length
               (Journal.pending ~dir:(Server.shard_journal_dir ~root:jroot 0)))))

(* --- stdio answers what has arrived ---------------------------------------- *)

(* A client writes 3 jobs (fewer than [queue]) into a pipe and waits
   for their answers before closing its end. The server must answer
   what has arrived instead of waiting for a full chunk. The client
   gives up after 10 s and closes anyway, so a server that waits fails
   the check rather than hanging the suite. Returns the summary and
   how many responses arrived before the close. *)
let answered_before_close serve_stream =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let client =
    Domain.spawn (fun () ->
        let data =
          String.concat "" (List.map (fun i -> job ~dyn:(24_500 + i) i ^ "\n") [ 1; 2; 3 ])
        in
        ignore (Unix.write_substring req_w data 0 (String.length data));
        let deadline = Unix.gettimeofday () +. 10. in
        let buf = Bytes.create 4096 in
        let lines = ref 0 in
        let open_ = ref true in
        while !open_ && !lines < 3 && Unix.gettimeofday () < deadline do
          match
            Unix.select [ resp_r ] [] [] (Float.max 0. (deadline -. Unix.gettimeofday ()))
          with
          | [ _ ], _, _ ->
            let n = Unix.read resp_r buf 0 (Bytes.length buf) in
            if n = 0 then open_ := false;
            for i = 0 to n - 1 do
              if Bytes.get buf i = '\n' then incr lines
            done
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        Unix.close req_w;
        !lines)
  in
  let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
  let summary =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        close_out_noerr oc)
      (fun () -> serve_stream ic oc)
  in
  let answered = Domain.join client in
  Unix.close resp_r;
  (summary, answered)

let test_stdio_short_window () =
  let check_mode name serve_stream =
    let summary, answered = answered_before_close serve_stream in
    check int_ (name ^ ": 3 answers before the client closed") 3 answered;
    check int_ (name ^ ": 3 jobs served") 3 summary.Server.served;
    check int_ (name ^ ": no errors") 0 summary.Server.errors
  in
  check_mode "in-process" (fun ic oc ->
      Server.serve_channel (Server.session (Serve_config.of_flags ~jobs:2 ~queue:8 ())) ic oc);
  check_mode "tier" (fun ic oc ->
      Coordinator.run_channel (Serve_config.of_flags ~workers:1 ~jobs:1 ~queue:8 ()) ic oc)

(* --- one admission policy on every path ----------------------------------- *)

(* Job 2 is shed (20001 + 20002 > 30000), so only job 1 is in flight
   when job 3 arrives: acme holds 1 of its 2 quota slots and the work
   budget has room (20001 + 5003), so job 3 runs. Stdio in-process,
   stdio through the tier and the socket loop must agree on every
   outcome and message. *)
let test_admission_parity () =
  let lines =
    [
      job ~v:1 ~tenant:"acme" ~dyn:20_001 1;
      job ~v:1 ~tenant:"acme" ~dyn:20_002 2;
      job ~v:1 ~tenant:"acme" ~dyn:5_003 3;
    ]
  in
  let outcome r =
    let err = Option.value (Json.member "error" r) ~default:Json.Null in
    Json.to_string
      (Json.List
         [
           member "id" r;
           member "ok" r;
           Option.value (Json.member "kind" err) ~default:Json.Null;
           Option.value (Json.member "message" err) ~default:Json.Null;
         ])
  in
  let _, inproc =
    serve ~cfg:(Serve_config.of_flags ~jobs:1 ~queue:8 ~tenant_quota:2 ~shed_above:30_000 ()) lines
  in
  let _, tier, _ = serve_sharded ~workers:1 ~tenant_quota:2 ~shed_above:30_000 lines in
  let socket =
    with_socket_tier
      ~cfg:(Serve_config.of_flags ~workers:1 ~jobs:1 ~queue:8 ~tenant_quota:2 ~shed_above:30_000 ())
      (fun ~connect ~send ~recv_line ->
        let fd = connect () in
        (* all three lines in one write *)
        send fd (String.concat "\n" lines);
        let rs =
          List.init 3 (fun _ ->
              match recv_line fd with
              | Some l -> Json.parse l
              | None -> Alcotest.fail "socket closed early")
        in
        Unix.close fd;
        rs)
  in
  let outcomes rs = List.map outcome rs in
  let expected = outcomes socket in
  check int_ "socket answered all three" 3 (List.length expected);
  check (Alcotest.list Alcotest.string) "stdio in-process matches the socket loop"
    expected (outcomes inproc);
  check (Alcotest.list Alcotest.string) "stdio tier matches the socket loop" expected
    (outcomes tier);
  match socket with
  | [ r1; r2; r3 ] ->
    check bool_ "job 1 runs" true (member "ok" r1 = Json.Bool true);
    check bool_ "job 2 is shed" true (kind_of r2 = Some (Json.String "overloaded"));
    check bool_ "job 3 runs" true (member "ok" r3 = Json.Bool true)
  | _ -> Alcotest.fail "wrong response count"

(* One write carrying 12 jobs must not put 12 in flight: the socket
   loop admits at most [queue] at a time from what a read framed, as a
   stdio chunk does. With [queue = 2] two jobs (80 001 dyn) fit under
   the 90 000 shed budget, so nothing is shed; before the backlog, all
   12 were admitted at once and 10 were shed. *)
let test_socket_queue_cap () =
  let lines = List.init 12 (fun i -> job ~dyn:(40_000 + i) i) in
  let cfg () =
    Serve_config.of_flags ~workers:1 ~jobs:1 ~queue:2 ~shed_above:90_000 ()
  in
  (* wall time and cache provenance differ run to run *)
  let strip r =
    match r with
    | Json.Obj kvs ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "wall_s" && k <> "cache_hit") kvs))
    | _ -> Json.to_string r
  in
  let _, stdin = serve ~cfg:{ (cfg ()) with Serve_config.workers = 0 } lines in
  let socket =
    with_socket_tier ~cfg:(cfg ()) (fun ~connect ~send ~recv_line ->
        let fd = connect () in
        send fd (String.concat "\n" lines);
        let rs =
          List.init 12 (fun _ ->
              match recv_line fd with
              | Some l -> Json.parse l
              | None -> Alcotest.fail "socket closed early")
        in
        Unix.close fd;
        rs)
  in
  let served = List.filter (fun r -> member "ok" r = Json.Bool true) socket in
  check int_ "every job served, none shed" 12 (List.length served);
  check (Alcotest.list Alcotest.string) "socket responses equal stdin's"
    (List.map strip stdin) (List.map strip socket)

(* --- the event loop's periodic metrics ----------------------------------- *)

let test_socket_metrics_snapshots () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "tier.sock" in
      let mbuf = Buffer.create 4096 in
      let stop = Server.Stop.create () in
      let tier =
        Domain.spawn (fun () ->
            Coordinator.run_socket ~stop ~manifest:(Manifest.to_buffer mbuf)
              (Serve_config.of_flags ~workers:1 ~jobs:1 ~metrics_every_s:0. ())
              ~path ())
      in
      let rec wait_sock n =
        if n = 0 then Alcotest.fail "socket never appeared";
        if not (Sys.file_exists path) then begin
          Unix.sleepf 0.05;
          wait_sock (n - 1)
        end
      in
      let summary =
        Fun.protect
          ~finally:(fun () -> Server.Stop.signal stop)
          (fun () ->
            wait_sock 100;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            let ic = Unix.in_channel_of_descr fd in
            let line = job ~dyn:24_403 1 ^ "\n" in
            ignore (Unix.write_substring fd line 0 (String.length line));
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            let r = Json.parse (input_line ic) in
            close_in ic;
            check bool_ "the job answered ok" true (member "ok" r = Json.Bool true);
            Server.Stop.signal stop;
            Domain.join tier)
      in
      check int_ "one job served" 1 summary.Server.served;
      let snapshots =
        String.split_on_char '\n' (Buffer.contents mbuf)
        |> List.filter (fun l -> l <> "")
        |> List.map Json.parse
        |> List.filter (fun r ->
               Json.member "record" r = Some (Json.String "metrics_snapshot"))
      in
      check bool_ "the event loop emitted metrics snapshots" true (snapshots <> []);
      List.iter
        (fun r -> assert_valid ~schema:(load_schema "metrics.schema.json") (member "metrics" r))
        snapshots)

let suite =
  [
    Alcotest.test_case "serve_config round-trip" `Quick
      test_serve_config_roundtrip;
    Alcotest.test_case "shard routing" `Quick test_shard_routing;
    Alcotest.test_case "wire envelope versions" `Quick test_envelope_versions;
    Alcotest.test_case "v0 client compatibility" `Quick test_v0_compat;
    Alcotest.test_case "tenant quota preserves order" `Quick
      test_tenant_quota_order;
    Alcotest.test_case "sharded tier end to end" `Quick
      test_coordinator_end_to_end;
    Alcotest.test_case "worker crash recovery" `Quick
      test_coordinator_crash_recovery;
    Alcotest.test_case "journal shard replay" `Quick
      test_coordinator_journal_shard_replay;
    Alcotest.test_case "journal replay across resharding" `Quick
      test_coordinator_journal_reshard_replay;
    Alcotest.test_case "tier replays the in-process root journal" `Quick
      test_tier_replays_root_journal;
    Alcotest.test_case "in-process server replays worker shards" `Quick
      test_inproc_replays_shard_journal;
    Alcotest.test_case "socket event loop emits metrics snapshots" `Quick
      test_socket_metrics_snapshots;
    Alcotest.test_case "stdio answers a short window" `Quick
      test_stdio_short_window;
    Alcotest.test_case "admission parity across front ends" `Quick
      test_admission_parity;
    Alcotest.test_case "write_all vs nonblocking full pipe" `Quick
      test_write_all_nonblocking_pipe;
    Alcotest.test_case "quota released on connection failure" `Quick
      test_quota_released_on_conn_failure;
    Alcotest.test_case "ring shrink moves only the dead shard" `Quick
      test_shard_shrink;
    Alcotest.test_case "hedged requests deduplicated" `Quick test_hedge_dedup;
    Alcotest.test_case "live failover serves degraded" `Quick
      test_failover_degraded;
    Alcotest.test_case "torn frame discarded and resubmitted" `Quick
      test_torn_frame_resubmit;
    Alcotest.test_case "scheduled chaos exactly-once" `Quick
      test_scheduled_chaos;
    Alcotest.test_case "socket admits at most queue jobs per connection" `Quick
      test_socket_queue_cap;
  ]
