(* Tests for the service layer: serializable requests, the
   content-addressed disk cache, the single run path, and the JSONL
   batch server. *)

module W = Dise_workload
module A = Dise_acf
module Config = Dise_uarch.Config
module Controller = Dise_core.Controller
module Stats = Dise_uarch.Stats
module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag
module Cache = Dise_service.Cache
module Request = Dise_service.Request
module Server = Dise_service.Server
module Figures = Dise_harness.Figures
module Report = Dise_harness.Report

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* --- temp-dir scaffolding ----------------------------------------------- *)

let tmp_counter = ref 0

let with_temp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dise-service-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* The disk cache is process-global state; leave it clean for the
   other suites whatever happens. *)
let with_disk_cache dir f =
  Request.clear_memory ();
  Request.set_disk_cache (Some (Cache.create ~dir));
  Fun.protect
    ~finally:(fun () ->
      Request.set_disk_cache None;
      Request.clear_memory ())
    f

let tiny_request = Request.v ~dyn_target:25_000 "tiny"

(* --- request <-> JSON round-trip ---------------------------------------- *)

let gen_request =
  let open QCheck.Gen in
  let bench = oneofl [ "tiny"; "gzip"; "mcf" ] in
  let machine =
    oneofl
      [
        Config.default;
        Config.with_width 2 Config.default;
        Config.with_icache_kb None Config.default;
        Config.with_icache_kb (Some 8) Config.default;
        Config.with_dise_decode Config.Stall_per_expansion Config.default;
        Config.with_dise_decode Config.Extra_stage Config.default;
      ]
  in
  let controller =
    oneof
      [
        return None;
        map
          (fun (e, assoc) ->
            Some
              { Controller.default_config with
                Controller.rt_entries = e;
                rt_assoc = assoc;
                composing = assoc = 1 })
          (pair (oneofl [ 512; 2048 ]) (oneofl [ 1; 2 ]));
      ]
  in
  let acf =
    oneof
      [
        return Request.Baseline;
        map (fun v -> Request.Mfi_dise v) (oneofl [ A.Mfi.Dise3; A.Mfi.Dise4 ]);
        map
          (fun v -> Request.Mfi_rewrite v)
          (oneofl [ A.Rewrite.Segment_matching; A.Rewrite.Sandboxing ]);
        map
          (fun (scheme, (mfi, rewritten)) ->
            Request.Decompress { scheme; mfi; rewritten })
          (pair
             (oneofl A.Compress.fig7_schemes)
             (pair (oneofl [ `None; `Composed ]) bool));
      ]
  in
  map
    (fun (bench, (dyn_target, (machine, (controller, (acf, (jit, jit_threshold)))))) ->
      { Request.bench; dyn_target; machine; controller; acf; jit; jit_threshold })
    (pair bench
       (pair (int_range 1_000 500_000)
          (pair machine
             (pair controller (pair acf (pair bool (int_range 1 32)))))))

let arbitrary_request =
  QCheck.make ~print:(fun r -> Request.canonical r) gen_request

let prop_roundtrip =
  QCheck.Test.make ~name:"request JSON round-trip is the identity" ~count:300
    arbitrary_request (fun r ->
      match Request.of_json (Request.to_json r) with
      | Ok r' -> r' = r
      | Error d -> QCheck.Test.fail_reportf "decode failed: %s" (Diag.to_string d))

let prop_roundtrip_via_text =
  QCheck.Test.make ~name:"request survives print + reparse" ~count:300
    arbitrary_request (fun r ->
      match Request.of_json (Json.parse (Request.canonical r)) with
      | Ok r' -> Request.canonical r' = Request.canonical r && r' = r
      | Error d -> QCheck.Test.fail_reportf "decode failed: %s" (Diag.to_string d))

let test_of_json_rejects () =
  let bad s =
    match Request.of_json (Json.parse s) with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error d -> Diag.category d
  in
  check string_ "unknown bench is parse-class" "parse"
    (bad {|{"bench":"nope","dyn_target":1000}|});
  check string_ "missing dyn_target" "parse" (bad {|{"bench":"tiny"}|});
  check string_ "bad acf kind" "parse"
    (bad {|{"bench":"tiny","dyn_target":1000,"acf":{"kind":"wat"}}|});
  (* Unknown members (e.g. the serve protocol's "id") are ignored. *)
  match Request.of_json (Json.parse {|{"bench":"tiny","dyn_target":1000,"id":7}|}) with
  | Ok r -> check string_ "bench decoded" "tiny" r.Request.bench
  | Error d -> Alcotest.failf "rejected id-carrying request: %s" (Diag.to_string d)

(* --- cache-key stability -------------------------------------------------- *)

(* Golden: pins the canonical encoding AND the salted hash. If this
   test breaks, the on-disk format changed — bump Cache.version and
   re-pin. *)
let test_key_golden () =
  let r = Request.v ~dyn_target:20_000 "tiny" in
  check string_ "cache key is stable" "e911a59c4145b05613ec1a29fe491860"
    (Request.key r);
  check bool_ "canonical starts with bench member" true
    (String.length (Request.canonical r) > 16
    && String.sub (Request.canonical r) 0 16 = {|{"bench":"tiny",|});
  check string_ "salt embeds version" ("dise-result-cache-v" ^ Cache.version)
    Cache.salt

(* --- disk cache behaviour ------------------------------------------------- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_store_find_corrupt () =
  with_temp_dir (fun dir ->
      let c = Cache.create ~dir in
      let k = Cache.key "probe" in
      check bool_ "miss before store" true (Cache.find c ~key:k = None);
      Cache.store c ~key:k ~request:(Json.String "probe")
        ~payload:(Json.Int 42);
      check bool_ "hit after store" true
        (Cache.find c ~key:k = Some (Json.Int 42));
      check int_ "one entry" 1 (Cache.entries c);
      (* Truncated JSON: detected, deleted, reported as a miss. *)
      write_file (Cache.path c ~key:k) "{\"salt\": \"dise";
      check bool_ "corrupt entry is a miss" true (Cache.find c ~key:k = None);
      check bool_ "corrupt entry was deleted" false
        (Sys.file_exists (Cache.path c ~key:k));
      (* Wrong salt (stale version): same treatment. *)
      Cache.store c ~key:k ~request:Json.Null ~payload:(Json.Int 1);
      write_file (Cache.path c ~key:k)
        {|{"salt":"dise-result-cache-v0","key":"x","payload":1}|};
      check bool_ "stale-salt entry is a miss" true (Cache.find c ~key:k = None);
      check int_ "clear reports removals" 0 (Cache.clear c))

let test_run_recovers_from_corruption () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let r = tiny_request in
          let stats1, hit1 = Result.get_ok (Request.run_ext r) in
          check bool_ "cold run simulates" false hit1;
          Request.clear_memory ();
          let stats2, hit2 = Result.get_ok (Request.run_ext r) in
          check bool_ "warm run served from disk" true hit2;
          check bool_ "disk stats identical" true
            (Stats.to_json stats1 = Stats.to_json stats2);
          (* Corrupt the entry behind the cache's back: the next run
             must detect it, recompute, and heal the entry. *)
          let c = Option.get (Request.disk_cache ()) in
          write_file (Cache.path c ~key:(Request.key r)) "garbage not json";
          Request.clear_memory ();
          let stats3, hit3 = Result.get_ok (Request.run_ext r) in
          check bool_ "corrupt entry forces recompute" false hit3;
          check bool_ "recomputed stats identical" true
            (Stats.to_json stats1 = Stats.to_json stats3);
          Request.clear_memory ();
          let _, hit4 = Result.get_ok (Request.run_ext r) in
          check bool_ "entry healed" true hit4))

let test_counters_and_clear () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let h0, m0 = Request.cache_counters () in
          ignore (Request.run tiny_request);
          let h1, m1 = Request.cache_counters () in
          check int_ "cold run is one miss" 1 (m1 - m0);
          check int_ "cold run no hit" 0 (h1 - h0);
          Request.clear_memory ();
          ignore (Request.run tiny_request);
          let h2, m2 = Request.cache_counters () in
          check int_ "warm run is one hit" 1 (h2 - h1);
          check int_ "warm run no miss" 0 (m2 - m1);
          let c = Option.get (Request.disk_cache ()) in
          check bool_ "entries persisted" true (Cache.entries c > 0);
          (* Experiment.clear_cache must wipe the disk cache too. *)
          Dise_harness.Experiment.clear_cache ();
          check int_ "clear_cache wipes disk" 0 (Cache.entries c)))

let test_sink_bypasses_cache () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let profile = Dise_telemetry.Profile.create () in
          ignore (Request.run ~profile tiny_request);
          let c = Option.get (Request.disk_cache ()) in
          check int_ "sink run left the disk cache untouched" 0
            (Cache.entries c);
          let h, m = Request.cache_counters () in
          ignore (h, m);
          let _, hit = Result.get_ok (Request.run_ext tiny_request) in
          check bool_ "sink run did not populate the memo either" false hit))

(* --- cold vs. warm figure: byte-identical CSV ---------------------------- *)

let figure_opts =
  { Figures.default_opts with
    Figures.dyn_target = 25_000;
    benchmarks = [ "tiny" ] }

let test_cold_warm_csv_identical () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let _, m0 = Request.cache_counters () in
          let cold = Figures.fig6_top figure_opts in
          let csv_cold = Report.to_csv cold in
          let _, m1 = Request.cache_counters () in
          check bool_ "cold run missed" true (m1 - m0 > 0);
          Request.clear_memory ();
          let h1, _ = Request.cache_counters () in
          let warm = Figures.fig6_top figure_opts in
          let csv_warm = Report.to_csv warm in
          let h2, m2 = Request.cache_counters () in
          check bool_ "warm run hit" true (h2 - h1 > 0);
          check int_ "warm run never simulated" 0 (m2 - m1);
          check string_ "cold and warm CSV byte-identical" csv_cold csv_warm))

let test_cold_warm_ratio_panel () =
  with_temp_dir (fun dir ->
      with_disk_cache dir (fun () ->
          let cold = Report.to_csv (Figures.fig7_ratio figure_opts) in
          Request.clear_memory ();
          let _, m1 = Request.cache_counters () in
          let warm = Report.to_csv (Figures.fig7_ratio figure_opts) in
          let _, m2 = Request.cache_counters () in
          check int_ "warm ratio panel never ran the compressor" 0 (m2 - m1);
          check string_ "ratio CSV byte-identical" cold warm))

(* --- the batch server ----------------------------------------------------- *)

let serve lines =
  with_temp_dir (fun dir ->
      let inp = Filename.concat dir "in.jsonl" in
      let outp = Filename.concat dir "out.jsonl" in
      write_file inp (String.concat "\n" lines ^ "\n");
      let ic = open_in inp in
      let oc = open_out outp in
      let summary =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () ->
            (* queue = 1 keeps chunks sequential, so the duplicate
               request deterministically finds the first one's result
               (in a wider chunk the two could race for the memo claim
               and either could be the one that simulates). *)
            Server.serve_channel
              (Server.session
                 (Dise_service.Serve_config.of_flags ~jobs:2 ~queue:1 ()))
              ic oc)
      in
      let ic = open_in outp in
      let rec read acc =
        match input_line ic with
        | line -> read (Json.parse line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let responses = Fun.protect ~finally:(fun () -> close_in_noerr ic)
          (fun () -> read [])
      in
      (summary, responses))

let member name j = Option.get (Json.member name j)

let test_serve_stream () =
  with_temp_dir (fun cache_dir ->
      with_disk_cache cache_dir (fun () ->
          let req = {|{"id":1,"bench":"tiny","dyn_target":25000}|} in
          let dup = {|{"id":2,"bench":"tiny","dyn_target":25000}|} in
          let bad_bench = {|{"id":3,"bench":"nope","dyn_target":25000}|} in
          let bad_json = "{this is not json" in
          let summary, rs =
            serve [ req; ""; dup; bad_bench; bad_json ]
          in
          check int_ "four responses (blank line skipped)" 4
            (List.length rs);
          check int_ "summary served" 4 summary.Server.served;
          check int_ "summary errors" 2 summary.Server.errors;
          check bool_ "summary hits" true (summary.Server.cache_hits >= 1);
          (match rs with
          | [ r1; r2; r3; r4 ] ->
            check bool_ "ids echoed in input order" true
              (member "id" r1 = Json.Int 1 && member "id" r2 = Json.Int 2);
            check bool_ "first ok" true (member "ok" r1 = Json.Bool true);
            (* The duplicate must be served without re-simulating
               (memo or disk — either counts). *)
            check bool_ "duplicate is a cache hit" true
              (member "cache_hit" r2 = Json.Bool true);
            check bool_ "stats attached" true
              (Json.member "cycles" (member "stats" r1) <> None);
            check bool_ "same key for same request" true
              (member "key" r1 = member "key" r2);
            check bool_ "unknown bench is a parse error" true
              (member "ok" r3 = Json.Bool false
              && Json.member "kind" (member "error" r3)
                 = Some (Json.String "parse"));
            check bool_ "malformed line is a parse error" true
              (member "ok" r4 = Json.Bool false
              && Json.member "kind" (member "error" r4)
                 = Some (Json.String "parse"))
          | _ -> Alcotest.fail "wrong response count");
          (* Responses must validate against the published schema. *)
          let schema =
            Json.parse
              (let ic = open_in "../doc/schema/serve_response.schema.json" in
               Fun.protect ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> really_input_string ic (in_channel_length ic)))
          in
          List.iter
            (fun r ->
              match Dise_telemetry.Json_schema.validate ~schema r with
              | [] -> ()
              | errs ->
                Alcotest.failf "response fails schema: %a"
                  (Format.pp_print_list Dise_telemetry.Json_schema.pp_error)
                  errs)
            rs))

(* Production-set swap between serve chunks: with queue = 1 every
   request is its own chunk, and the stream alternates production
   sets (MFI dise3 / baseline / dise4 / dise3 again). Each request
   builds its engine afresh, so compiled superblocks must never leak
   across the swaps: a JIT-enabled serve must produce exactly the
   simulated statistics of a --no-jit serve, response for response.
   (The cache keys differ by design — the jit knob is part of the
   request key — so the comparison is over the stats objects with the
   jit telemetry counters masked.) *)
let test_serve_prodset_swap_chunks () =
  let stream jit =
    let j = Printf.sprintf {|"jit":{"enabled":%b,"threshold":1}|} jit in
    [
      Printf.sprintf
        {|{"id":1,"bench":"tiny","dyn_target":20000,"acf":{"kind":"mfi_dise","variant":"dise3"},%s}|}
        j;
      Printf.sprintf {|{"id":2,"bench":"tiny","dyn_target":20000,%s}|} j;
      Printf.sprintf
        {|{"id":3,"bench":"tiny","dyn_target":20000,"acf":{"kind":"mfi_dise","variant":"dise4"},%s}|}
        j;
      Printf.sprintf
        {|{"id":4,"bench":"tiny","dyn_target":20000,"acf":{"kind":"mfi_dise","variant":"dise3"},%s}|}
        j;
    ]
  in
  let masked_stats rs =
    List.map
      (fun r ->
        check bool_ "response ok" true (member "ok" r = Json.Bool true);
        match member "stats" r with
        | Json.Obj ms ->
          Json.Obj
            (List.filter
               (fun (k, _) ->
                 k <> "jit_compiles" && k <> "jit_hits"
                 && k <> "jit_invalidations")
               ms)
        | other -> other)
      rs
  in
  let _, with_jit = serve (stream true) in
  let _, without = serve (stream false) in
  check int_ "four jit responses" 4 (List.length with_jit);
  check int_ "four interpreter responses" 4 (List.length without);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "chunk %d: jit and no-jit stats differ" (i + 1))
    (List.combine (masked_stats with_jit) (masked_stats without))

(* The jit knob is part of the memo key: results cached from a JIT
   run and an interpreter run must never collide. *)
let test_jit_knob_distinct_keys () =
  let base = Request.v ~dyn_target:20_000 "tiny" in
  let on = Request.v ~dyn_target:20_000 ~jit:true ~jit_threshold:8 "tiny" in
  let off = Request.v ~dyn_target:20_000 ~jit:false "tiny" in
  let tuned = Request.v ~dyn_target:20_000 ~jit:true ~jit_threshold:2 "tiny" in
  check bool_ "jit on and off keys differ" true
    (Request.key on <> Request.key off);
  check bool_ "threshold is part of the key" true
    (Request.key on <> Request.key tuned);
  check string_ "default spells out the process default"
    (Request.key base) (Request.key on)

(* The in-memory compression memo must key on the whole scheme: a
   request may carry a custom scheme that reuses a standard scheme's
   name, and it must get its own image, not the standard one. *)
let test_compress_memo_keys_whole_scheme () =
  let entry = W.Suite.get ~dyn_target:20_000 W.Profile.tiny in
  let custom = { A.Compress.full_dise with A.Compress.max_len = 2 } in
  let run scheme =
    let req =
      Request.v ~dyn_target:20_000 ~controller:Controller.default_config
        ~acf:
          (Request.Decompress { scheme; mfi = `None; rewritten = false })
        "tiny"
    in
    match Request.run_ext ~entry req with
    | Ok (stats, _) -> stats
    | Error d -> Alcotest.failf "decompress run: %s" (Diag.to_string d)
  in
  Request.clear_memory ();
  Fun.protect ~finally:Request.clear_memory (fun () ->
      ignore (run A.Compress.full_dise);
      let r = Request.compress_result ~scheme:custom entry in
      check bool_ "memo returns the custom scheme's result" true
        (r.A.Compress.scheme = custom);
      let after_standard = run custom in
      Request.clear_memory ();
      let fresh = run custom in
      check int_ "cycles match a cold memo" fresh.Stats.cycles
        after_standard.Stats.cycles)

let t = QCheck_alcotest.to_alcotest

let suite =
  [
    t prop_roundtrip;
    t prop_roundtrip_via_text;
    ("cache key golden", `Quick, test_key_golden);
    ("of_json rejections", `Quick, test_of_json_rejects);
    ("cache store/find/corrupt", `Quick, test_store_find_corrupt);
    ("run recovers from corruption", `Quick, test_run_recovers_from_corruption);
    ("counters and clear_cache", `Quick, test_counters_and_clear);
    ("sinks bypass caches", `Quick, test_sink_bypasses_cache);
    ("cold vs warm CSV identical", `Quick, test_cold_warm_csv_identical);
    ("cold vs warm ratio panel", `Quick, test_cold_warm_ratio_panel);
    ("serve JSONL stream", `Quick, test_serve_stream);
    ("serve prodset swap between chunks", `Quick,
     test_serve_prodset_swap_chunks);
    ("jit knob distinct cache keys", `Quick, test_jit_knob_distinct_keys);
    ("compress memo keys the whole scheme", `Quick,
     test_compress_memo_keys_whole_scheme);
  ]
