(* The repository benchmark. One process runs one workload from a seed,
   checks every op's output against the records under expected/, and
   prints its metrics; README.md in this directory documents the
   workloads, the metrics and the layer map. run.py builds and invokes
   this executable. *)

open Measure
module Suite = Dise_workload.Suite
module Profile = Dise_workload.Profile
module Codegen = Dise_workload.Codegen
module Program = Dise_isa.Program
module Compress = Dise_acf.Compress
module Mfi = Dise_acf.Mfi
module Machine = Dise_machine.Machine
module Engine = Dise_core.Engine
module Controller = Dise_core.Controller
module Config = Dise_uarch.Config
module Pipeline = Dise_uarch.Pipeline
module Stats = Dise_uarch.Stats
module Request = Dise_service.Request
module Cache = Dise_service.Cache
module Score = Dise_synthesize.Score

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** the self-test configuration: seconds, not minutes *)
  expected : string;  (** directory of expected-output records *)
  update : bool;  (** rewrite the records instead of measuring *)
  disesim : string;  (** the serve binary *)
  workdir : string;  (** scratch space for sockets, caches and traces *)
}

(* What a workload's measurement hands back to the report. *)
type result = {
  lat : float list;  (** per-op host seconds, untraced *)
  best : float list option;
      (** each cell's fastest untraced op of the run; when given,
          op_p50_ms and op_tail_ms are taken over these, not over [lat] *)
  busy : float;  (** host seconds the untraced ops were measured over *)
  attempted : int;  (** ops run, traced ones included *)
  failed : int;
  static_insns : int;  (** static instructions the ops compressed *)
  sim_insns : int;  (** simulated retired instructions of the ops *)
  setup : float list;  (** set-up samples, seconds *)
  tail_q : float;  (** the tail percentile of op_tail_ms *)
  tier_rss_kb : int;  (** peak RSS of processes the workload started *)
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  notes : string list;  (** printed before the result line *)
}

let quick = [ "bzip2"; "gzip"; "mcf"; "parser" ]

let profile name =
  match Profile.find name with
  | Some p -> p
  | None -> invalid_arg ("unknown benchmark " ^ name)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Whole passes, each over the cells [pass ()] returns (a seeded
   permutation of a fixed population), so every run measures the same
   multiset of cells and only their order depends on the seed. After
   [min] passes, another starts while it would end nearer [seconds] than
   stopping now would. A traced run traces every other pass, so traced
   and untraced ops share the host's and the heap's state and the gap
   between them is the tracing overhead; it runs [min] passes of each.
   [f ~traced cell] runs one op. Returns the passes run. *)
let passes ?(min = 1) ~trace ~seconds pass f =
  let min = if trace then 2 * min else min in
  let t0 = now () in
  let n = ref 0 in
  let continue () =
    !n < min
    ||
    let spent = now () -. t0 in
    spent +. (spent /. float_of_int !n /. 2.0) < seconds
  in
  while continue () do
    let traced = trace && !n mod 2 = 1 in
    tracing := traced;
    List.iter (f ~traced) (pass ());
    incr n
  done;
  tracing := false;
  !n

let setups ?(n = 3) ~tiny f = List.init (if tiny then 2 else n) (fun _ -> f ())

let max_steps = 100_000_000

(* Stats with the float [ipc] member dropped: every remaining field is
   an integer, so the printed form compares exactly. *)
let stats_json st =
  match Stats.to_json st with
  | Json.Obj ms -> Json.Obj (List.filter (fun (k, _) -> k <> "ipc") ms)
  | j -> j

(* Proxies recorded per cell the first time it runs; a repeat of the
   cell must reproduce them exactly, else the run is not correct. *)
let proxy_mismatch = ref 0

let note_proxies tbl id values =
  match Hashtbl.find_opt tbl id with
  | None -> Hashtbl.replace tbl id values
  | Some v when v = values -> ()
  | Some _ ->
    incr proxy_mismatch;
    Printf.eprintf "perfbench: proxies of %s did not repeat\n%!" id

(* Mean of one proxy over cells in a fixed order, so the figure repeats
   exactly whatever the seed. *)
let proxy_mean tbl ids f =
  let xs =
    List.filter_map
      (fun id -> Option.map f (Hashtbl.find_opt tbl id))
      ids
  in
  mean xs

let gc_majors () = (Gc.quick_stat ()).Gc.major_collections

(* A machine driven by a DISE engine, as the request path builds it. *)
let engine_machine image prodset =
  let engine = Engine.create ~image prodset in
  let m = Machine.create ~expander:(Engine.expander engine) image in
  Engine.attach_jit ~threshold:Machine.default_jit_threshold engine m;
  m

(* The same machine with every static instruction's expansion looked up
   in a table computed beforehand: timing it against [engine_machine]
   separates the engine's matching and instantiation from the machine. *)
let table_machine image prodset =
  let module Image = Program.Image in
  let engine = Engine.create ~image prodset in
  let table =
    Array.init (Image.length image) (fun i ->
        match
          Engine.expand_result engine ~pc:(Image.addr_of_index image i)
            (Image.get image i)
        with
        | Ok e -> e
        | Error _ -> None)
  in
  let expander ~pc _ =
    let i = Image.find_index image pc in
    if i < 0 then None else table.(i)
  in
  let m = Machine.create ~expander image in
  Machine.enable_jit ~threshold:Machine.default_jit_threshold m;
  m

(* ======================================================================== *)
(* compress: one op is one Compress.compress cell, memos cold.              *)
(* ======================================================================== *)

module Compress_w = struct
  let dyn = 120_000

  let cells tiny =
    if tiny then [ ("mcf", Compress.dedicated); ("mcf", Compress.full_dise) ]
    else
      List.concat_map
        (fun b -> List.map (fun s -> (b, s)) Compress.fig7_schemes)
        quick

  let id (b, s) = b ^ "/" ^ s.Compress.name

  let output (r : Compress.result) =
    Json.Obj
      [
        ("orig_text_bytes", Json.Int r.Compress.orig_text_bytes);
        ("text_bytes", Json.Int r.Compress.text_bytes);
        ("dict_bytes", Json.Int r.Compress.dict_bytes);
        ("dict_entries", Json.Int (List.length r.Compress.entries));
        ("codewords", Json.Int r.Compress.codewords);
      ]

  let benches cells = List.sort_uniq compare (List.map fst cells)

  let gen benches =
    Suite.clear_cache ();
    List.map (fun b -> (b, Suite.get ~dyn_target:dyn (profile b))) benches

  let update opts =
    let cells = cells false in
    let entries = gen (benches cells) in
    write_records
      (Filename.concat opts.expected "compress.json")
      (List.map
         (fun ((b, scheme) as c) ->
           let prog = (List.assoc b entries).Suite.gen.Codegen.program in
           (id c, output (Compress.compress ~scheme prog)))
         cells)

  let run opts records =
    let cells = cells opts.tiny in
    let rng = Random.State.make [| opts.seed; 1 |] in
    let setup =
      setups ~tiny:opts.tiny (fun () -> snd (time (fun () -> gen (benches cells))))
    in
    let entries = gen (benches cells) in
    let prog b = (List.assoc b entries).Suite.gen.Codegen.program in
    let lat = ref [] and tlat = ref [] and failed = ref 0 in
    let static = ref 0 and op = ref 0 in
    let proxies = Hashtbl.create 32 in
    let corpus_ms = ref [] and select_ms = ref [] in
    let majors0 = gc_majors () in
    (* Three passes at least: a pass is only 24 ops, op_tail_ms needs ten
       beyond its percentile, and a shorter run averages too little of the
       host's drift. *)
    ignore
      (passes ~min:3 ~trace:opts.trace ~seconds:opts.seconds
         (fun () -> shuffle rng cells)
         (fun ~traced ((b, scheme) as c) ->
          let p = prog b in
          let mw0 = Gc.minor_words () in
          let r, dt =
            timed ~layer:"acf.compress" ~name:"Compress.compress" ~op:!op
              (fun () -> Compress.compress ~scheme p)
          in
          let mw = Gc.minor_words () -. mw0 in
          if not (check records ~id:(id c) (output r)) then incr failed;
          if traced then tlat := dt :: !tlat
          else begin
            lat := dt :: !lat;
            static := !static + Program.size p
          end;
          if traced then begin
            let corpus, dc =
              timed ~layer:"acf.compress" ~name:"Compress.corpus" ~op:!op
                (fun () -> Compress.corpus ~scheme p)
            in
            corpus_ms := (dc *. 1e3) :: !corpus_ms;
            select_ms := ((dt -. dc) *. 1e3) :: !select_ms;
            note_proxies proxies (id c)
              [
                float_of_int (List.length (Compress.windows corpus));
                float_of_int (List.length r.Compress.entries);
                float_of_int r.Compress.codewords;
                mw /. float_of_int (Program.size p);
              ]
          end;
          incr op)
      : int);
    let layers =
      if not opts.trace then []
      else begin
        let ids = List.map id cells in
        let pm i = proxy_mean proxies ids (fun v -> List.nth v i) in
        let static_per_op =
          mean (List.map (fun (b, _) -> float_of_int (Program.size (prog b))) cells)
        in
        [
          ("workload.gen_ms", median setup *. 1e3);
          ("workload.static_insns", static_per_op);
          ("compress.corpus_ms", mean !corpus_ms);
          ("compress.select_layout_ms", mean !select_ms);
          ("compress.windows", pm 0);
          ("compress.dict_entries", pm 1);
          ("compress.codewords", pm 2);
          ("compress.minor_words_per_static_insn", pm 3);
          ("self_ms.acf.compress", mean !tlat *. 1e3);
          ("trace.overhead_frac", (median !tlat /. median !lat) -. 1.0);
          ( "gc.major_per_op",
            float_of_int (gc_majors () - majors0) /. float_of_int !op );
        ]
      end
    in
    {
      lat = !lat;
      best = None;
      busy = List.fold_left ( +. ) 0.0 !lat;
      attempted = !op;
      failed = !failed;
      static_insns = !static;
      sim_insns = 0;
      setup;
      tail_q = 0.75;
      tier_rss_kb = 0;
      layers;
      notes = [];
    }
end

(* ======================================================================== *)
(* simulate: one op is one Request.run_ext that really simulates.          *)
(* ======================================================================== *)

module Simulate_w = struct
  let dyn = 300_000

  let acfs =
    [
      ("baseline", Request.Baseline);
      ("mfi-dise3", Request.Mfi_dise Mfi.Dise3);
      ( "decompress-dise",
        Request.Decompress
          { scheme = Compress.full_dise; mfi = `None; rewritten = false } );
    ]

  let cells tiny =
    let benches = if tiny then [ "mcf" ] else quick in
    List.concat_map (fun b -> List.map (fun (a, acf) -> (b, a, acf)) acfs) benches

  let id (b, a, _) = b ^ "/" ^ a

  let decompress = function Request.Decompress _ -> true | _ -> false
  let acf_is_baseline (_, _, acf) = acf = Request.Baseline

  (* Generation and the compressed images of the decompression cells:
     no timed op ever compresses. Returns (entries, generation seconds). *)
  let setup cells =
    Suite.clear_cache ();
    Request.clear_memory ();
    let benches = List.sort_uniq compare (List.map (fun (b, _, _) -> b) cells) in
    let entries, gen_s =
      time (fun () ->
          List.map (fun b -> (b, Suite.get ~dyn_target:dyn (profile b))) benches)
    in
    List.iter
      (fun (_, e) -> ignore (Request.compress_result ~scheme:Compress.full_dise e))
      entries;
    (entries, gen_s)

  let request (b, _, acf) = Request.v ~dyn_target:dyn ~acf b

  let update opts =
    let cells = cells false in
    let entries, _ = setup cells in
    write_records
      (Filename.concat opts.expected "simulate.json")
      (List.map
         (fun ((b, _, _) as c) ->
           match Request.run_ext ~entry:(List.assoc b entries) (request c) with
           | Ok (st, _) -> (id c, stats_json st)
           | Error d -> failwith (Dise_isa.Diag.to_string d))
         cells)

  (* The op's own machine, built from public constructors exactly as the
     request path builds it (default JIT on). With [~table:true] the
     engine's expansions are precomputed per static instruction instead,
     so the run times the machine without the engine. *)
  let machine ?(table = false) (entry : Suite.entry) (_, _, acf) =
    let mk image prodset =
      if table then table_machine image prodset else engine_machine image prodset
    in
    match acf with
    | Request.Mfi_dise variant ->
      let image = entry.Suite.image in
      let m = mk image (Mfi.productions_for ~variant image) in
      Mfi.install m ~data_seg:Codegen.data_segment_id
        ~code_seg:Codegen.code_segment_id;
      m
    | Request.Decompress { scheme; _ } ->
      let r = Request.compress_result ~scheme entry in
      mk r.Compress.image r.Compress.prodset
    | _ ->
      let m = Machine.create entry.Suite.image in
      Machine.enable_jit ~threshold:Machine.default_jit_threshold m;
      m

  let run opts records =
    let cells = cells opts.tiny in
    let rng = Random.State.make [| opts.seed; 2 |] in
    let samples = setups ~tiny:opts.tiny (fun () -> time (fun () -> setup cells)) in
    let setup_s = List.map snd samples in
    let gen_ms = median (List.map (fun ((_, g), _) -> g *. 1e3) samples) in
    let entries = fst (fst (List.hd (List.rev samples))) in
    (* The greedy compression behind the set-up's images, replayed with
       the enumeration timed apart: it is the work item 3 moves here. *)
    let setup_compress =
      if not opts.trace then []
      else begin
        tracing := true;
        let per_bench =
          List.map
            (fun (_, e) ->
              let p = e.Suite.gen.Codegen.program in
              let scheme = Compress.full_dise in
              let corpus, dc =
                timed ~layer:"acf.compress" ~name:"Compress.corpus" ~op:(-1)
                  (fun () -> Compress.corpus ~scheme p)
              in
              let mw0 = Gc.minor_words () in
              let r, dt =
                timed ~layer:"acf.compress" ~name:"Compress.compress" ~op:(-1)
                  (fun () -> Compress.compress ~scheme p)
              in
              let size = float_of_int (Program.size p) in
              [
                dc *. 1e3;
                (dt -. dc) *. 1e3;
                float_of_int (List.length (Compress.windows corpus));
                float_of_int (List.length r.Compress.entries);
                float_of_int r.Compress.codewords;
                (Gc.minor_words () -. mw0) /. size;
              ])
            entries
        in
        tracing := false;
        let col i = mean (List.map (fun v -> List.nth v i) per_bench) in
        [
          ("compress.corpus_ms", col 0);
          ("compress.select_layout_ms", col 1);
          ("compress.windows", col 2);
          ("compress.dict_entries", col 3);
          ("compress.codewords", col 4);
          ("compress.minor_words_per_static_insn", col 5);
        ]
      end
    in
    let lat = ref [] and tlat = ref [] and failed = ref 0 in
    let sim = ref 0 and op = ref 0 in
    let proxies = Hashtbl.create 16 in
    let machine_ns = ref [] and pipe_ns = ref [] and request_ms = ref [] in
    let machine_ms = ref [] and pipe_ms = ref [] and op_ms = ref [] in
    let engine_ms = ref [] in
    let one ~traced ((b, _, _) as c) =
      let entry = List.assoc b entries in
      let mw0 = Gc.minor_words () in
      let res, dt =
        timed ~layer:"service.request" ~name:"Request.run_ext" ~op:!op (fun () ->
            Request.run_ext ~entry (request c))
      in
      let mw = Gc.minor_words () -. mw0 in
      if traced then tlat := dt :: !tlat else lat := dt :: !lat;
      (match res with
      | Ok (st, false) ->
        if not (check records ~id:(id c) (stats_json st)) then incr failed;
        if not traced then sim := !sim + st.Stats.retired;
        if traced then begin
          let m = machine entry c in
          let mw0 = Gc.minor_words () in
          let executed, dm =
            timed ~layer:"machine" ~name:"Machine.run_raw" ~op:!op (fun () ->
                Machine.run_raw ~max_steps m (fun _ -> ()))
          in
          let machine_mw = Gc.minor_words () -. mw0 in
          let engined = not (acf_is_baseline c) in
          let de =
            if not engined then 0.0
            else
              let mt = machine ~table:true entry c in
              let _, dt_tab =
                timed ~layer:"machine" ~name:"Machine.run_raw(expansion table)"
                  ~op:!op (fun () -> Machine.run_raw ~max_steps mt (fun _ -> ()))
              in
              dm -. dt_tab
          in
          let m2 = machine entry c in
          let _, dp =
            timed ~layer:"uarch.pipeline" ~name:"Pipeline.run" ~op:!op
              (fun () -> Pipeline.run ~max_steps Config.default m2)
          in
          let per_insn x = x /. float_of_int st.Stats.retired in
          machine_ns := per_insn (dm *. 1e9) :: !machine_ns;
          pipe_ns := per_insn ((dt -. dm) *. 1e9) :: !pipe_ns;
          machine_ms := ((dm -. de) *. 1e3) :: !machine_ms;
          engine_ms := (de *. 1e3) :: !engine_ms;
          pipe_ms := ((dp -. dm) *. 1e3) :: !pipe_ms;
          request_ms := ((dt -. dp) *. 1e3) :: !request_ms;
          op_ms := (dt *. 1e3) :: !op_ms;
          let hits = Machine.jit_hits m and compiles = Machine.jit_compiles m in
          note_proxies proxies (id c)
            [
              machine_mw /. float_of_int executed;
              (mw -. machine_mw) /. float_of_int st.Stats.retired;
              float_of_int hits /. float_of_int (max 1 (hits + compiles));
              float_of_int st.Stats.expansions *. 1e3
              /. float_of_int st.Stats.retired;
              float_of_int st.Stats.retired;
              float_of_int st.Stats.cycles;
            ]
        end
      | Ok (_, true) ->
        incr failed;
        Printf.eprintf "perfbench: %s was served from a cache\n%!" (id c)
      | Error d ->
        incr failed;
        Printf.eprintf "perfbench: %s failed: %s\n%!" (id c)
          (Dise_isa.Diag.to_string d));
      incr op
    in
    (* Baseline statistics are memoized in memory, so the baseline and
       fault-isolation cells run in passes that each start with the memo
       cleared; that also drops the compressed images, so the
       decompression cells run first, with the same number of passes. *)
    let dec, rest = List.partition (fun (_, _, acf) -> decompress acf) cells in
    let majors0 = gc_majors () in
    let n =
      passes ~trace:opts.trace ~seconds:(opts.seconds *. 0.3)
        (fun () -> shuffle rng dec)
        one
    in
    for i = 0 to n - 1 do
      let traced = opts.trace && i mod 2 = 1 in
      tracing := traced;
      Request.clear_memory ();
      List.iter (one ~traced) (shuffle rng rest)
    done;
    tracing := false;
    let layers =
      if not opts.trace then []
      else begin
        let ids = List.map id cells in
        let pm i = proxy_mean proxies ids (fun v -> List.nth v i) in
        let op_mean = mean !op_ms in
        setup_compress
        @ [
          ("workload.gen_ms", gen_ms);
          ( "workload.static_insns",
            mean
              (List.map
                 (fun (b, _, _) ->
                   float_of_int
                     (Program.size
                        (List.assoc b entries).Suite.gen.Codegen.program))
                 cells) );
          ("machine.ns_per_insn", mean !machine_ns);
          ("machine.minor_words_per_insn", pm 0);
          ("machine.jit_hit_frac", pm 2);
          ("engine.expansions_per_kinsn", pm 3);
          ("pipeline.self_ns_per_insn", mean !pipe_ns);
          ("pipeline.minor_words_per_insn", pm 1);
          ("pipeline.retired", pm 4);
          ("pipeline.cycles", pm 5);
          ("self_ms.machine", mean !machine_ms);
          ("self_ms.core.engine", mean !engine_ms);
          ("self_ms.uarch.pipeline", mean !pipe_ms);
          ("self_ms.service.request", mean !request_ms);
          ( "trace.sim_attributed_frac",
            (mean !machine_ms +. mean !engine_ms +. mean !pipe_ms) /. op_mean );
          ("trace.overhead_frac", (median !tlat /. median !lat) -. 1.0);
          ( "gc.major_per_op",
            float_of_int (gc_majors () - majors0) /. float_of_int !op );
        ]
      end
    in
    {
      lat = !lat;
      best = None;
      busy = List.fold_left ( +. ) 0.0 !lat;
      attempted = !op;
      failed = !failed;
      static_insns = 0;
      sim_insns = !sim;
      setup = setup_s;
      tail_q = 0.9;
      tier_rss_kb = 0;
      layers;
      notes = [];
    }
end

(* ======================================================================== *)
(* synth-eval: one op is one candidate evaluation through Score.score_batch *)
(* on the Local backend, disk cache off.                                    *)
(* ======================================================================== *)

module Synth_w = struct
  let dyn = 100_000
  let bench = "bzip2"
  let scheme = Compress.full_dise
  let controller = Controller.default_config

  (* The recorded candidate pool. Workload seeds draw a run's cells from
     it; the pool itself is fixed so every candidate has a record. Small
     seed lists fit the default PT/RT; a few of the large ones overflow
     the RT and are scored without simulation. *)
  let pool_small = 64
  let pool_large = 16

  let pool windows =
    let rng = Random.State.make [| 2003 |] in
    let w = Array.of_list windows in
    let draw k =
      List.init k (fun _ -> w.(Random.State.int rng (Array.length w)).Compress.w_seed)
    in
    Array.append
      (Array.init pool_small (fun _ -> draw (8 + Random.State.int rng 88)))
      (Array.init pool_large (fun _ -> draw (2400 + Random.State.int rng 400)))

  let id j = Printf.sprintf "cand/%d" j

  let output (o : Score.outcome) =
    Json.Obj
      [
        ("fits", Json.Bool o.Score.fits);
        ("ratio", exact_float o.Score.ratio);
        ("rel", exact_float o.Score.rel);
      ]

  (* Generation, the baseline run and the corpus the scorer shares. *)
  let setup () =
    Suite.clear_cache ();
    Request.clear_memory ();
    let entry, gen_s = time (fun () -> Suite.get ~dyn_target:dyn (profile bench)) in
    let base = Request.v ~dyn_target:dyn ~controller bench in
    let baseline =
      match Request.run_ext ~entry base with
      | Ok (st, _) -> st
      | Error d -> failwith (Dise_isa.Diag.to_string d)
    in
    let corpus = Compress.corpus ~scheme entry.Suite.gen.Codegen.program in
    let scorer =
      Score.create ~backend:(Score.Local { jobs = 1 }) ~base ~entry ~scheme
        ~corpus ~controller ~baseline_cycles:baseline.Stats.cycles
        ~rel_budget:1.05 ~slow_penalty:4.0
    in
    (entry, baseline, corpus, scorer, gen_s)

  let update opts =
    let _, _, corpus, scorer, _ = setup () in
    let cands = pool (Compress.windows corpus) in
    let outs = Score.score_batch scorer cands in
    write_records
      (Filename.concat opts.expected "synth.json")
      (Array.to_list (Array.mapi (fun j o -> (id j, output o)) outs))

  let run opts records =
    let rng = Random.State.make [| opts.seed; 3 |] in
    (* Set-up takes a fraction of a second here, so more samples. Only
       the last set-up is kept: the earlier ones' corpora would otherwise
       stay live and grow the heap every op's collections walk. *)
    let last = ref None in
    let samples =
      setups ~n:7 ~tiny:opts.tiny (fun () ->
          let ((_, _, _, _, gen_s) as r), dt = time setup in
          last := Some r;
          (gen_s, dt))
    in
    let setup_s = List.map snd samples in
    let gen_ms = median (List.map (fun (g, _) -> g *. 1e3) samples) in
    let entry, baseline, corpus, scorer, _ = Option.get !last in
    let cands = pool (Compress.windows corpus) in
    let prog = entry.Suite.gen.Codegen.program in
    (* The workload seed draws the run's cells, fit and unfit candidates
       by the pool's recorded verdicts, without replacement; every pass
       scores all of them in a new order. *)
    let n_fit, n_unfit = if opts.tiny then (1, 1) else (40, 4) in
    let fit_ids, unfit_ids =
      List.partition
        (fun j ->
          match Hashtbl.find_opt records (id j) with
          | Some r -> Json.member "fits" (Json.parse r) = Some (Json.Bool true)
          | None -> true)
        (List.init (Array.length cands) Fun.id)
    in
    let pick n ids = List.filteri (fun i _ -> i < n) (shuffle rng ids) in
    let cells = pick n_fit fit_ids @ pick n_unfit unfit_ids in
    (* Each cell's fastest op, untraced and traced. *)
    let best = Hashtbl.create 64 and tbest = Hashtbl.create 64 in
    let keep_best tbl j dt =
      match Hashtbl.find_opt tbl j with
      | Some b when b <= dt -> ()
      | _ -> Hashtbl.replace tbl j dt
    in
    let values tbl = List.of_seq (Hashtbl.to_seq_values tbl) in
    let lat = ref [] and tlat = ref [] and failed = ref 0 in
    let sim = ref 0 and op = ref 0 in
    let fits = ref 0 and scored = ref 0 in
    let corpus_ms = ref [] and seeded_ms = ref [] and sim_ms = ref [] in
    let acf_ms = ref [] and machine_ms = ref [] and pipe_ms = ref [] in
    let score_ms = ref [] and engine_ms = ref [] in
    let one ~traced j =
      let seeds = cands.(j) in
      let outs, dt =
        timed ~layer:"synthesize.score" ~name:"Score.score_batch" ~op:!op
          (fun () -> Score.score_batch scorer [| seeds |])
      in
      let o = outs.(0) in
      if traced then begin
        tlat := dt :: !tlat;
        keep_best tbest j dt
      end
      else begin
        lat := dt :: !lat;
        keep_best best j dt
      end;
      incr scored;
      if o.Score.fits then incr fits;
      if not (check records ~id:(id j) (output o) && o.Score.fresh) then
        incr failed;
      (* A decompressed run retires exactly the baseline's instructions. *)
      if o.Score.fits && not traced then
        sim := !sim + baseline.Stats.retired;
      if traced then begin
        let r, ds =
          timed ~layer:"acf.compress" ~name:"Compress.compress_seeded" ~op:!op
            (fun () -> Compress.compress_seeded corpus ~seeds)
        in
        seeded_ms := (ds *. 1e3) :: !seeded_ms;
        if not o.Score.fits then begin
          acf_ms := (ds *. 1e3) :: !acf_ms;
          score_ms := ((dt -. ds) *. 1e3) :: !score_ms
        end
        else begin
          (* The request's Synth arm enumerates the corpus and compresses
             the seeds again before it simulates. *)
          let _, dc =
            timed ~layer:"acf.compress" ~name:"Compress.corpus" ~op:!op
              (fun () -> Compress.corpus ~scheme prog)
          in
          let image = r.Compress.image and prodset = r.Compress.prodset in
          let m = engine_machine image prodset in
          let _, dm =
            timed ~layer:"machine" ~name:"Machine.run_raw" ~op:!op (fun () ->
                Machine.run_raw ~max_steps m (fun _ -> ()))
          in
          let mt = table_machine image prodset in
          let _, dt_tab =
            timed ~layer:"machine" ~name:"Machine.run_raw(expansion table)"
              ~op:!op (fun () -> Machine.run_raw ~max_steps mt (fun _ -> ()))
          in
          let m2 = engine_machine image prodset in
          let _, dp =
            timed ~layer:"uarch.pipeline" ~name:"Pipeline.run" ~op:!op
              (fun () ->
                Pipeline.run ~max_steps
                  ~controller:(Controller.create controller prodset)
                  Config.default m2)
          in
          engine_ms := ((dm -. dt_tab) *. 1e3) :: !engine_ms;
          corpus_ms := (dc *. 1e3) :: !corpus_ms;
          sim_ms := ((dt -. dc -. (2.0 *. ds)) *. 1e3) :: !sim_ms;
          acf_ms := ((dc +. (2.0 *. ds)) *. 1e3) :: !acf_ms;
          machine_ms := (dt_tab *. 1e3) :: !machine_ms;
          pipe_ms := ((dp -. dm) *. 1e3) :: !pipe_ms;
          score_ms := ((dt -. dc -. (2.0 *. ds) -. dp) *. 1e3) :: !score_ms
        end
      end;
      incr op
    in
    let majors0 = gc_majors () in
    (* Two passes at least, so every cell's best is a best of several:
       the host's speed swings in phases of seconds, and a cell's fastest
       op is the one least touched by them. *)
    ignore
      (passes ~min:2 ~trace:opts.trace ~seconds:opts.seconds
         (fun () -> shuffle rng cells)
         one
        : int);
    let layers =
      if not opts.trace then []
      else begin
        let per_op l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length !tlat) in
        [
          ("workload.gen_ms", gen_ms);
          ("workload.static_insns", float_of_int (Program.size prog));
          ("compress.corpus_ms", mean !corpus_ms);
          ("compress.seeded_ms", mean !seeded_ms);
          ( "compress.windows",
            float_of_int (List.length (Compress.windows corpus)) );
          ("score.fit_frac", float_of_int !fits /. float_of_int !scored);
          ("score.sim_ms", mean !sim_ms);
          ("self_ms.acf.compress", per_op !acf_ms);
          ("self_ms.machine", per_op !machine_ms);
          ("self_ms.core.engine", per_op !engine_ms);
          ("self_ms.uarch.pipeline", per_op !pipe_ms);
          ("self_ms.synthesize.score", per_op !score_ms);
          (* Like op_p50_ms, over each cell's best. *)
          ( "trace.overhead_frac",
            (median (values tbest) /. median (values best)) -. 1.0 );
          ( "gc.major_per_op",
            float_of_int (gc_majors () - majors0) /. float_of_int !op );
        ]
      end
    in
    {
      lat = !lat;
      best = Some (values best);
      busy = List.fold_left ( +. ) 0.0 !lat;
      attempted = !op;
      failed = !failed;
      static_insns = 0;
      sim_insns = !sim;
      setup = setup_s;
      tail_q = 0.75;
      tier_rss_kb = 0;
      layers;
      notes = [];
    }
end

(* ======================================================================== *)
(* serve-mixed: one op is one request/response through                      *)
(* `disesim serve --socket --workers 1`, from a windowed pipelined client.  *)
(* ======================================================================== *)

module Tier = struct
  type t = { pid : int; sock : string; manifest : string }

  let connect sock =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

  (* Start a tier and wait until its socket accepts a connection. *)
  let start ~disesim ~dir ~name args =
    let sock = Filename.concat dir (name ^ ".sock") in
    let manifest = Filename.concat dir (name ^ ".manifest.jsonl") in
    (try Sys.remove sock with Sys_error _ -> ());
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let log =
      Unix.openfile (Filename.concat dir (name ^ ".log"))
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let argv =
      Array.of_list
        ([ disesim; "serve"; "--socket"; sock; "--manifest"; manifest ] @ args)
    in
    let pid = Unix.create_process disesim argv null null log in
    Unix.close null;
    Unix.close log;
    let deadline = now () +. 30.0 in
    let rec wait () =
      match connect sock with
      | Some fd -> Unix.close fd
      | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("perfbench: the " ^ name ^ " tier exited at start"));
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith ("perfbench: the " ^ name ^ " tier did not start")
        end;
        Unix.sleepf 0.002;
        wait ()
    in
    wait ();
    { pid; sock; manifest }

  (* Peak RSS of the tier's processes, read while they are alive. *)
  let rss_kb t =
    List.fold_left (fun acc p -> acc + hwm_kb p) (hwm_kb t.pid) (children t.pid)

  (* Graceful drain on SIGTERM, SIGKILL if it overruns. *)
  let stop t =
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 20.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
      | 0, _ ->
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid)
      | _ -> ()
    in
    wait ()

  (* The tier's serve_summary record, written when it drains. *)
  let summary t =
    match open_in t.manifest with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan found =
        match input_line ic with
        | exception End_of_file -> found
        | line -> (
          match Json.parse line with
          | j when Json.member "record" j = Some (Json.String "serve_summary")
            ->
            scan (Some j)
          | _ -> scan found
          | exception Json.Parse_error _ -> scan found)
      in
      let s = scan None in
      close_in ic;
      s
end

(* A pipelined JSONL connection: lines out, lines back, with a bounded
   wait for each response so a stalled server is detected, not waited
   out. *)
module Conn = struct
  type t = { fd : Unix.file_descr; mutable acc : string; chunk : Bytes.t }

  let v fd = { fd; acc = ""; chunk = Bytes.create 65536 }

  let send t line =
    let b = Bytes.of_string (line ^ "\n") in
    let rec put off =
      if off < Bytes.length b then
        put (off + Unix.write t.fd b off (Bytes.length b - off))
    in
    put 0

  (* The next response line, or None on EOF or after [timeout] seconds
     without one. *)
  let recv t ~timeout =
    let deadline = now () +. timeout in
    let rec go () =
      match String.index_opt t.acc '\n' with
      | Some i ->
        let line = String.sub t.acc 0 i in
        t.acc <- String.sub t.acc (i + 1) (String.length t.acc - i - 1);
        Some line
      | None -> (
        let left = deadline -. now () in
        if left <= 0.0 then None
        else
          match Unix.select [ t.fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
            match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
            | 0 -> None
            | n ->
              t.acc <- t.acc ^ Bytes.sub_string t.chunk 0 n;
              go ()))
    in
    go ()

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

module Serve_w = struct
  let dyn = 20_000
  let window = 8
  let acfs = [ ("baseline", Request.Baseline); ("mfi-dise3", Request.Mfi_dise Mfi.Dise3) ]

  (* The warm set: eight keys every run repeats, served from the tier's
     memo or disk cache after first touch. *)
  let warm tiny =
    let benches = if tiny then [ "mcf" ] else quick in
    List.concat_map
      (fun b ->
        List.map
          (fun (a, acf) ->
            (Printf.sprintf "warm/%s/%s" b a, Request.v ~dyn_target:dyn ~acf b))
          acfs)
      benches
    |> Array.of_list

  (* Fresh key [k] of the recorded pool: every key is distinct, so it
     simulates and stores. Keys cycle through eight dyn_targets per
     benchmark (each new to the tier on first use, which then generates
     its workload) and vary the memory latency every 64 keys; the cycle
     bounds the workloads the tier holds in memory. A run takes
     consecutive keys from a seeded offset and stops early rather than
     wrap. *)
  let pool = 8192

  let fresh k =
    let b = List.nth quick (k mod 4) in
    let _, acf = List.nth acfs (k / 4 mod 2) in
    let dyn_target = dyn + 1 + (k / 8 mod 8) in
    let machine =
      { Config.default with mem_latency = Config.default.Config.mem_latency + (k / 64) }
    in
    (Printf.sprintf "fresh/%d" k, Request.v ~dyn_target ~machine ~acf b)

  let digest st =
    Json.String (Digest.to_hex (Digest.string (Json.to_string (stats_json st))))

  let update opts =
    let run (id, r) =
      match Request.run_ext r with
      | Ok (st, _) -> (id, digest st)
      | Error d -> failwith (Dise_isa.Diag.to_string d)
    in
    let warm = Array.to_list (Array.map run (warm false)) in
    let fresh = List.init pool (fun k -> run (fresh k)) in
    write_records (Filename.concat opts.expected "serve.json") (warm @ fresh)

  let line i r =
    match Request.to_json r with
    | Json.Obj ms ->
      Json.to_string (Json.Obj (("v", Json.Int 1) :: ("id", Json.Int i) :: ms))
    | _ -> assert false

  (* Response bytes less the digits of its wall_s timing, which vary. *)
  let stable_bytes resp =
    let tag = "\"wall_s\":" in
    let n = String.length resp and t = String.length tag in
    let rec find i =
      if i + t > n then String.length resp
      else if String.sub resp i t = tag then begin
        let j = ref (i + t) in
        while
          !j < n && (match resp.[!j] with ',' | '}' -> false | _ -> true)
        do
          incr j
        done;
        n - (!j - i - t)
      end
      else find (i + 1)
    in
    find 0

  (* The known in-process front-end hang: with --workers 0 the server
     reads jobs in chunks of [queue] lines (8 here: 4 x 2 cores) and
     blocks for a full chunk, while a pipelined client whose last window
     is shorter than that waits for replies before it half-closes. 150
     is deliberately not a multiple of the chunk. Returns true when the
     client stalled. *)
  let hang_probe opts =
    let t =
      Tier.start ~disesim:opts.disesim ~dir:opts.workdir ~name:"probe"
        [ "--no-cache" ]
    in
    let hung =
      match Tier.connect t.Tier.sock with
      | None -> true
      | Some fd ->
        let c = Conn.v fd in
        let requests = 150 in
        let sent = ref 0 and got = ref 0 and stalled = ref false in
        while (not !stalled) && !got < requests do
          while !sent < requests && !sent - !got < window do
            Conn.send c
              (Printf.sprintf {|{"id":%d,"bench":"tiny","dyn_target":%d}|} !sent
                 (dyn + (!sent mod 8)));
            incr sent
          done;
          match Conn.recv c ~timeout:2.0 with
          | Some _ -> incr got
          | None -> stalled := true
        done;
        Conn.close c;
        !stalled
    in
    Tier.stop t;
    hung

  let run opts records =
    let rng = Random.State.make [| opts.seed; 4 |] in
    let warm = warm opts.tiny in
    let start i =
      Tier.start ~disesim:opts.disesim ~dir:opts.workdir ~name:"tier"
        [
          "--workers"; "1";
          "--cache"; Filename.concat opts.workdir (Printf.sprintf "cache-%d" i);
        ]
    in
    let n_setup = if opts.tiny then 2 else 3 in
    let setup =
      List.init n_setup (fun i ->
          let t, dt = time (fun () -> start i) in
          if i < n_setup - 1 then Tier.stop t;
          (t, dt))
    in
    let tier = fst (List.nth setup (n_setup - 1)) in
    let conn =
      match Tier.connect tier.Tier.sock with
      | Some fd -> Conn.v fd
      | None -> failwith "perfbench: cannot connect to the tier"
    in
    let offset = Random.State.int rng pool in
    let fresh_used = ref 0 and exhausted = ref false in
    let op = ref 0 and failed = ref 0 and hits = ref 0 in
    let lat = ref [] and traced_lat = ref [] and wire = ref [] in
    let next () =
      let i = !op in
      if i mod 2 = 0 then Some (warm.(Random.State.int rng (Array.length warm)))
      else if !fresh_used >= pool then (exhausted := true; None)
      else begin
        let k = (offset + !fresh_used) mod pool in
        incr fresh_used;
        Some (fresh k)
      end
    in
    let outstanding = Queue.create () in
    (* A traced run traces alternate blocks of 16 ops, so traced and
       untraced ops see the same tier state and the gap between them is
       the tracing overhead. *)
    let traced op_i = opts.trace && op_i / 16 mod 2 = 1 in
    let answer (id, t0, req_bytes, op_i) resp =
      let dt = now () -. t0 in
      if traced op_i then begin
        tracing := true;
        record ~layer:"service.coordinator" ~name:"request" ~op:op_i ~start:t0 ~dur:dt;
        tracing := false;
        traced_lat := dt :: !traced_lat
      end
      else lat := dt :: !lat;
      if op_i < 64 then wire := (req_bytes + stable_bytes resp) :: !wire;
      let ok =
        match Json.parse resp with
        | exception Json.Parse_error _ -> false
        | j -> (
          if Json.member "cache_hit" j = Some (Json.Bool true) then incr hits;
          match (Json.member "ok" j, Json.member "stats" j) with
          | Some (Json.Bool true), Some s -> (
            match Stats.of_json s with
            | Ok st -> check records ~id (digest st)
            | Error _ -> false)
          | _ -> false)
      in
      if not ok then incr failed
    in
    let drive ~seconds =
      let t0 = now () in
      let stop = t0 +. seconds in
      let broken = ref false in
      let continue () = (not !exhausted) && now () < stop in
      while (not !broken) && (continue () || not (Queue.is_empty outstanding)) do
        while continue () && Queue.length outstanding < window do
          match next () with
          | None -> ()
          | Some (id, r) ->
            let l = line !op r in
            Queue.push (id, now (), String.length l + 1, !op) outstanding;
            Conn.send conn l;
            incr op
        done;
        if not (Queue.is_empty outstanding) then
          match Conn.recv conn ~timeout:60.0 with
          | Some resp -> answer (Queue.pop outstanding) resp
          | None ->
            broken := true;
            failed := !failed + Queue.length outstanding;
            Queue.clear outstanding
      done;
      now () -. t0
    in
    let majors0 = gc_majors () in
    let busy = drive ~seconds:opts.seconds in
    let untraced_lat = !lat and traced_lat = !traced_lat in
    let wire_bytes = mean (List.map float_of_int !wire) in
    Conn.close conn;
    let tier_rss = Tier.rss_kb tier in
    Tier.stop tier;
    let summary = Tier.summary tier in
    let hung = hang_probe opts in
    let notes =
      [
        Printf.sprintf
          "serve-mixed: in-process front-end hang probe (--workers 0, %d \
           requests, window %d): %s"
          150 window
          (if hung then "STALLED (known; ROADMAP item 5)" else "completed");
      ]
      @ (if !exhausted then
           [ "serve-mixed: the fresh-key pool ran out before the time did" ]
         else [])
    in
    let layers =
      if not opts.trace then []
      else begin
        let hist name field =
          match summary with
          | None -> 0.0
          | Some s -> (
            match
              Option.bind (Json.member "metrics" s) (Json.member "histograms")
              |> Fun.flip Option.bind (Json.member name)
              |> Fun.flip Option.bind (Json.member field)
            with
            | Some (Json.Int v) -> float_of_int v
            | Some (Json.Float v) -> v
            | _ -> 0.0)
        in
        let hmean name =
          let c = hist name "count" in
          if c = 0.0 then 0.0 else hist name "sum" /. c
        in
        (* In-process probes of the layers a worker runs for each job:
           the result cache's find and store, and run_ext served from
           disk, on the warm keys. *)
        let cache = Cache.create ~dir:(Filename.concat opts.workdir "probe-cache") in
        Request.set_disk_cache (Some cache);
        let find_us = ref [] and store_us = ref [] and hit_us = ref [] in
        Array.iter (fun (_, r) -> ignore (Request.run_ext r)) warm;
        for round = 1 to 5 do
          Array.iter
            (fun (_, r) ->
              let key = Request.key r in
              Request.clear_memory ();
              let _, d =
                timed ~layer:"service.request" ~name:"Request.run_ext(hit)" ~op:(-1)
                  (fun () -> Request.run_ext r)
              in
              hit_us := (d *. 1e6) :: !hit_us;
              let payload, d =
                timed ~layer:"service.cache" ~name:"Cache.find" ~op:(-1) (fun () ->
                    Cache.find cache ~key)
              in
              find_us := (d *. 1e6) :: !find_us;
              let request = Request.to_json r in
              let payload = Option.value payload ~default:Json.Null in
              let _, d =
                timed ~layer:"service.cache" ~name:"Cache.store" ~op:(-1) (fun () ->
                    Cache.store cache
                      ~key:(Cache.key (Printf.sprintf "%d/%s" round key))
                      ~request ~payload)
              in
              store_us := (d *. 1e6) :: !store_us)
            warm
        done;
        Request.set_disk_cache None;
        Request.clear_memory ();
        let gen_ms =
          median
            (List.init 3 (fun i ->
                 Suite.clear_cache ();
                 snd
                   (time (fun () ->
                        List.iter
                          (fun b ->
                            ignore (Suite.get ~dyn_target:(dyn + 100 + i) (profile b)))
                          quick))
                 *. 1e3))
        in
        let static =
          mean
            (List.map
               (fun b ->
                 let e = Suite.get ~dyn_target:dyn (profile b) in
                 float_of_int (Program.size e.Suite.gen.Codegen.program))
               quick)
        in
        Suite.clear_cache ();
        let hit_frac = float_of_int !hits /. float_of_int !op in
        let cache_ms =
          ((median !find_us +. ((1.0 -. hit_frac) *. median !store_us)) /. 1e3)
        in
        let exec_ms = hmean "serve_execute_ns" /. 1e6 in
        [
          ("workload.gen_ms", gen_ms);
          ("workload.static_insns", static);
          ("request.hit_us_p50", median !hit_us);
          ("request.hit_frac", hit_frac);
          ("cache.find_us_p50", median !find_us);
          ("cache.store_us_p50", median !store_us);
          ("wire.bytes_per_op", wire_bytes);
          ("serve.queue_wait_p50_ms", hist "serve_queue_wait_ns" "p50" /. 1e6);
          ("serve.execute_p50_ms", hist "serve_execute_ns" "p50" /. 1e6);
          ( "serve.client_overhead_p50_ms",
            (median (untraced_lat @ traced_lat) *. 1e3)
            -. (hist "serve_request_ns" "p50" /. 1e6) );
          ("serve.inproc_hang_probe", if hung then 1.0 else 0.0);
          ("self_ms.service.coordinator", (mean traced_lat *. 1e3) -. exec_ms);
          ("self_ms.service.request", exec_ms -. cache_ms);
          ("self_ms.service.cache", cache_ms);
          ("trace.overhead_frac", (median traced_lat /. median untraced_lat) -. 1.0);
          ( "gc.major_per_op",
            float_of_int (gc_majors () - majors0) /. float_of_int !op );
        ]
      end
    in
    {
      lat = untraced_lat;
      best = None;
      busy;
      attempted = !op;
      failed = !failed;
      static_insns = 0;
      sim_insns = 0;
      setup = List.map snd setup;
      tail_q = 0.99;
      tier_rss_kb = tier_rss;
      layers;
      notes;
    }
end

(* ======================================================================== *)
(* report                                                                   *)
(* ======================================================================== *)

(* Every per-layer metric, in report order; a workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("workload.gen_ms", "ms"); ("workload.static_insns", "count");
    ("compress.corpus_ms", "ms"); ("compress.select_layout_ms", "ms");
    ("compress.seeded_ms", "ms"); ("compress.windows", "count");
    ("compress.dict_entries", "count"); ("compress.codewords", "count");
    ("compress.minor_words_per_static_insn", "words");
    ("machine.ns_per_insn", "ns"); ("machine.minor_words_per_insn", "words");
    ("machine.jit_hit_frac", "ratio"); ("engine.expansions_per_kinsn", "count");
    ("pipeline.self_ns_per_insn", "ns"); ("pipeline.minor_words_per_insn", "words");
    ("pipeline.retired", "count"); ("pipeline.cycles", "count");
    ("request.hit_us_p50", "us"); ("request.hit_frac", "ratio");
    ("cache.find_us_p50", "us"); ("cache.store_us_p50", "us");
    ("wire.bytes_per_op", "bytes"); ("serve.queue_wait_p50_ms", "ms");
    ("serve.execute_p50_ms", "ms"); ("serve.client_overhead_p50_ms", "ms");
    ("serve.inproc_hang_probe", "count"); ("score.fit_frac", "ratio");
    ("score.sim_ms", "ms"); ("self_ms.acf.compress", "ms");
    ("self_ms.machine", "ms"); ("self_ms.core.engine", "ms");
    ("self_ms.uarch.pipeline", "ms"); ("self_ms.service.request", "ms");
    ("self_ms.service.cache", "ms"); ("self_ms.service.coordinator", "ms");
    ("self_ms.synthesize.score", "ms"); ("trace.overhead_frac", "ratio");
    ("trace.sim_attributed_frac", "ratio"); ("gc.major_per_op", "count");
  ]

(* The end-to-end metrics of the result line: those never 0. *)
let gated = [ "ops_per_s"; "op_p50_ms"; "op_tail_ms"; "setup_s"; "peak_rss_mb" ]

let metric name unit value =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let report opts (r : result) =
  let n = List.length r.lat in
  let qlat = Option.value r.best ~default:r.lat in
  let busy = if r.busy > 0.0 then r.busy else 1.0 in
  let rss_mb = float_of_int (hwm_kb 0 + r.tier_rss_kb) /. 1024.0 in
  let correct = r.failed = 0 && !proxy_mismatch = 0 in
  List.iter print_endline r.notes;
  let metrics =
    if opts.trace then
      List.map
        (fun (name, unit) ->
          metric name unit (Option.value (List.assoc_opt name r.layers) ~default:0.0))
        per_layer
    else begin
      let e2e =
        [
          ("ops_per_s", "1/s", float_of_int n /. busy);
          ("op_p50_ms", "ms", median qlat *. 1e3);
          ("op_tail_ms", "ms", quantile qlat r.tail_q *. 1e3);
          ("static_kinsn_per_s", "1/s", float_of_int r.static_insns /. 1e3 /. busy);
          ("sim_minsn_per_s", "1/s", float_of_int r.sim_insns /. 1e6 /. busy);
          ("setup_s", "s", median r.setup);
          ("peak_rss_mb", "MB", rss_mb);
          ( "failed_frac", "ratio",
            float_of_int r.failed /. float_of_int (max 1 r.attempted) );
        ]
      in
      Printf.printf "%s: %d ops%s, op_tail_ms is p%g with %d samples beyond it%s\n"
        opts.workload n
        (match r.best with
         | Some b -> Printf.sprintf " (latencies: best of each of %d cells)" (List.length b)
         | None -> "")
        (r.tail_q *. 100.0) (beyond qlat r.tail_q)
        (if beyond qlat r.tail_q < 10 then " (fewer than 10: widen the run)" else "");
      List.iter
        (fun (name, unit, v) -> Printf.printf "  %-20s %14.6f %s\n" name v unit)
        e2e;
      (* static_kinsn_per_s and sim_minsn_per_s are 0 on the workloads
         that do not compress or simulate, and failed_frac is the result
         line's failed/attempted: printed above, not gated. *)
      List.filter_map
        (fun (name, unit, v) ->
          if List.mem name gated
          then Some (metric name unit v)
          else None)
        e2e
    end
  in
  if opts.trace then begin
    let path =
      Filename.concat (Filename.dirname opts.workdir)
        (Printf.sprintf "trace-%s-%d.json" opts.workload opts.seed)
    in
    write_trace path;
    Printf.printf "trace written to %s (%d spans)\n" path (List.length !spans);
    List.iter
      (fun (name, unit) ->
        match List.assoc_opt name r.layers with
        | Some v -> Printf.printf "  %-38s %14.6f %s\n" name v unit
        | None -> ())
      per_layer
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj metrics);
          ]));
  correct

let workloads =
  [
    ("compress", (Compress_w.run, Compress_w.update, "compress.json"));
    ("simulate", (Simulate_w.run, Simulate_w.update, "simulate.json"));
    ("serve-mixed", (Serve_w.run, Serve_w.update, "serve.json"));
    ("synth-eval", (Synth_w.run, Synth_w.update, "synth.json"));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and tiny = ref false and update = ref false in
  let expected = ref "perfbench/expected" and disesim = ref "" in
  let workdir = ref ".bench_build/perfbench" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME compress | simulate | serve-mixed | synth-eval" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 untraced end-to-end run, or traced per-layer run" );
      ("--tiny", Arg.Set tiny, " seconds-long configuration for the self-test");
      ("--expected", Arg.Set_string expected, "DIR expected-output records");
      ( "--update-expected",
        Arg.Set update,
        " rewrite the expected-output records of --workload from this build" );
      ("--disesim", Arg.Set_string disesim, "PATH disesim executable (serve-mixed)");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline
      "perfbench: --workload must name one of compress, simulate, \
       serve-mixed, synth-eval";
    exit 2
  | Some (run, update_records, file) ->
    let opts =
      {
        workload = !workload; seed = !seed; seconds = !seconds;
        trace = !trace = 1; tiny = !tiny; expected = !expected;
        update = !update; disesim = !disesim; workdir = !workdir;
      }
    in
    if opts.update then update_records opts
    else begin
      let records = read_records (Filename.concat opts.expected file) in
      origin := now ();
      if not (report opts (run opts records)) then exit 1
    end
