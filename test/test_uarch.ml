(* Tests for the timing model: cache behaviour, branch prediction, and
   directional sanity of the pipeline (more work or more misses must
   never make execution faster, wider machines must not be slower,
   etc.). *)

open Dise_isa
open Dise_uarch
module Machine = Dise_machine.Machine
module Controller = Dise_core.Controller
module Workload = Dise_workload

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* --- cache ---------------------------------------------------------- *)

let test_cache_basic () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  check bool_ "cold miss" true (Cache.access c 0x1000 = `Miss);
  check bool_ "same line hits" true (Cache.access c 0x1004 = `Hit);
  check bool_ "same line, different word hits" true
    (Cache.access c 0x103C = `Hit);
  check bool_ "next line misses" true (Cache.access c 0x1040 = `Miss);
  check int_ "misses" 2 (Cache.misses c)

let test_cache_capacity () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  (* Touch 3 lines mapping to the same set in a 2-way cache: thrash. *)
  let set_stride = 1024 / 2 in
  ignore (Cache.access c 0);
  ignore (Cache.access c set_stride);
  ignore (Cache.access c (2 * set_stride));
  check bool_ "first way evicted" true (Cache.access c 0 = `Miss)

let test_cache_lru () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  let set_stride = 1024 / 2 in
  ignore (Cache.access c 0);
  ignore (Cache.access c set_stride);
  ignore (Cache.access c 0);  (* refresh way 0 *)
  ignore (Cache.access c (2 * set_stride));  (* evicts set_stride *)
  check bool_ "LRU victim chosen" true (Cache.access c 0 = `Hit);
  check bool_ "evicted line misses" true (Cache.access c set_stride = `Miss)

let test_cache_probe () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  check bool_ "probe does not allocate" false (Cache.probe c 0x40);
  ignore (Cache.access c 0x40);
  check bool_ "probe sees line" true (Cache.probe c 0x40)

let test_cache_validation () =
  (match Cache.create ~size_bytes:100 ~assoc:2 ~line_bytes:64 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad geometry accepted");
  match Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:60 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-power-of-two line accepted"

(* --- branch predictor ------------------------------------------------ *)

let test_predictor_learns_bias () =
  let bp = Branch_pred.create () in
  let mis = ref 0 in
  for _ = 1 to 200 do
    match
      Branch_pred.on_branch bp ~pc:0x1000 ~kind:Branch_pred.Cond ~taken:true
        ~target:0x2000 ~fallthrough:0x1004
    with
    | `Mispredict -> incr mis
    | `Correct -> ()
  done;
  check bool_ "always-taken branch learned quickly" true (!mis < 10)

let test_predictor_alternating_with_history () =
  (* gshare should learn a strict alternation via global history. *)
  let bp = Branch_pred.create () in
  let mis = ref 0 in
  for i = 1 to 400 do
    match
      Branch_pred.on_branch bp ~pc:0x1000 ~kind:Branch_pred.Cond
        ~taken:(i land 1 = 0) ~target:0x2000 ~fallthrough:0x1004
    with
    | `Mispredict -> if i > 100 then incr mis
    | `Correct -> ()
  done;
  check bool_ "alternation learned" true (!mis < 30)

let test_predictor_ras () =
  let bp = Branch_pred.create () in
  (* call then matching return: predicted. *)
  ignore
    (Branch_pred.on_call bp ~pc:0x1000 ~target:0x4000 ~fallthrough:0x1004
       ~indirect:false);
  (match
     Branch_pred.on_branch bp ~pc:0x4050 ~kind:Branch_pred.Return ~taken:true
       ~target:0x1004 ~fallthrough:0x4054
   with
  | `Correct -> ()
  | `Mispredict -> Alcotest.fail "matched return should predict");
  (* return with empty RAS mispredicts *)
  match
    Branch_pred.on_branch bp ~pc:0x4050 ~kind:Branch_pred.Return ~taken:true
      ~target:0x1004 ~fallthrough:0x4054
  with
  | `Mispredict -> ()
  | `Correct -> Alcotest.fail "empty RAS should mispredict"

let test_predictor_btb () =
  let bp = Branch_pred.create () in
  (* first indirect jump to a target mispredicts, repeat predicts *)
  (match
     Branch_pred.on_branch bp ~pc:0x3000 ~kind:Branch_pred.Indirect ~taken:true
       ~target:0x7000 ~fallthrough:0x3004
   with
  | `Mispredict -> ()
  | `Correct -> Alcotest.fail "cold BTB should mispredict");
  match
    Branch_pred.on_branch bp ~pc:0x3000 ~kind:Branch_pred.Indirect ~taken:true
      ~target:0x7000 ~fallthrough:0x3004
  with
  | `Correct -> ()
  | `Mispredict -> Alcotest.fail "warm BTB should predict"

let test_predictor_perfect () =
  let bp = Branch_pred.perfect () in
  for i = 0 to 100 do
    match
      Branch_pred.on_branch bp ~pc:0x1000 ~kind:Branch_pred.Cond
        ~taken:(i land 3 = 0) ~target:0x2000 ~fallthrough:0x1004
    with
    | `Mispredict -> Alcotest.fail "perfect predictor mispredicted"
    | `Correct -> ()
  done

(* --- pipeline ------------------------------------------------------- *)

let run_with cfg src =
  let img = Program.layout (Asm.parse src) in
  let m = Machine.create img in
  Pipeline.run cfg m

let straightline n =
  let b = Buffer.create 256 in
  Buffer.add_string b "main:\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "  add r1, #%d, r2\n" (i land 7))
  done;
  Buffer.add_string b "  halt\n";
  Buffer.contents b

let test_pipeline_width_scales_independent_code () =
  (* Independent instructions: a 4-wide machine should approach 4 IPC
     and beat a 1-wide machine by ~4x. *)
  let src =
    let b = Buffer.create 256 in
    Buffer.add_string b "main:\n";
    for i = 1 to 400 do
      Buffer.add_string b
        (Printf.sprintf "  add zero, #%d, r%d\n" (i land 7) (1 + (i mod 8)))
    done;
    Buffer.add_string b "  halt\n";
    Buffer.contents b
  in
  (* Perfect I-cache: a 400-instruction program is dominated by cold
     I-cache misses otherwise, hiding the width effect. *)
  let cfg = Config.with_icache_kb None Config.default in
  let wide = run_with cfg src in
  let narrow = run_with (Config.with_width 1 cfg) src in
  check bool_ "wide is faster" true
    (wide.Stats.cycles * 3 < narrow.Stats.cycles);
  check bool_ "wide IPC over 2" true (Stats.ipc wide > 2.0)

let test_pipeline_dependence_serializes () =
  (* A dependent chain cannot exceed 1 IPC regardless of width. *)
  let stats = run_with Config.default (straightline 400) in
  check bool_ "chained IPC at most ~1" true (Stats.ipc stats <= 1.1)

let test_pipeline_icache_miss_costs () =
  (* The same program with a perfect I-cache must not be slower. *)
  let src = straightline 4000 in
  let real = run_with Config.default src in
  let perfect = run_with (Config.with_icache_kb None Config.default) src in
  check bool_ "perfect icache at least as fast" true
    (perfect.Stats.cycles <= real.Stats.cycles);
  check bool_ "icache misses counted" true (real.Stats.icache_misses > 0)

let test_pipeline_mispredict_penalty () =
  (* A data-dependent 50/50 branch pattern must run slower than a
     heavily biased one of identical instruction count. We emulate
     data dependence with an LCG in registers. *)
  let body bias =
    Printf.sprintf
      {|
      main:
        lui #16838, r10
        add r10, #20077, r10
        add zero, #4000, r4
        add zero, #12345, r5
      loop:
        mul r5, r10, r5
        add r5, #12345, r5
        srl r5, #13, r6
        and r6, #%d, r6
        beq r6, skip
        add r7, #1, r7
      skip:
        add r4, #-1, r4
        bgt r4, loop
        halt
      |}
      bias
  in
  let unpredictable = run_with Config.default (body 1) in
  let predictable = run_with Config.default (body 0) in
  (* bias=0: r6 always 0, branch always taken -> learned. *)
  check bool_ "unpredictable has more mispredicts" true
    (unpredictable.Stats.mispredicts > predictable.Stats.mispredicts + 500);
  check bool_ "mispredicts cost cycles" true
    (unpredictable.Stats.cycles > predictable.Stats.cycles)

let test_pipeline_dcache_miss_costs () =
  (* Loads striding far apart miss; loads at one address hit. *)
  let body stride =
    Printf.sprintf
      {|
      main:
        lui #1024, r1
        add zero, #2000, r4
      loop:
        ldq r3, 0(r1)
        add r3, r3, r3
        lda r1, %d(r1)
        add r4, #-1, r4
        bgt r4, loop
        halt
      |}
      stride
  in
  let misses = run_with Config.default (body 4096) in
  let hits = run_with Config.default (body 0) in
  check bool_ "striding misses more" true
    (misses.Stats.dcache_misses > hits.Stats.dcache_misses + 1000);
  check bool_ "misses cost cycles" true
    (misses.Stats.cycles > hits.Stats.cycles * 2)

let test_pipeline_dise_stall_mode () =
  (* With an expanding production set, stall mode must cost cycles over
     free mode, and extra-stage must cost only on mispredicts. *)
  let entry = Workload.Suite.get ~dyn_target:30_000 Workload.Profile.tiny in
  let set =
    Dise_core.Prodset.resolve_labels
      (Program.Image.symbol entry.Workload.Suite.image)
      (Dise_core.Lang.parse
         {|
         P1: T.OPCLASS == store -> R1
         P2: T.OPCLASS == load -> R1
         R1: srl T.RS, #26, $dr1
             xor $dr1, $dr2, $dr1
             bne $dr1, __error
             T.INSN
         |})
  in
  let run mode =
    let engine = Dise_core.Engine.create set in
    let m =
      Machine.create ~expander:(Dise_core.Engine.expander engine)
        entry.Workload.Suite.image
    in
    Machine.set_dise_reg m 2 1;
    Pipeline.run (Config.with_dise_decode mode Config.default) m
  in
  let free = run Config.Free in
  let stall = run Config.Stall_per_expansion in
  let pipe = run Config.Extra_stage in
  check bool_ "expansions happened" true (free.Stats.expansions > 1000);
  (* The one-cycle bubble per expansion is partially absorbed when the
     backend is the bottleneck, so require a clear but modest gap. *)
  check bool_ "stall mode slower than free" true
    (stall.Stats.cycles > free.Stats.cycles + (free.Stats.expansions / 10));
  check bool_ "extra stage slower than free" true
    (pipe.Stats.cycles >= free.Stats.cycles);
  check bool_ "extra stage cheaper than stall here" true
    (pipe.Stats.cycles < stall.Stats.cycles)

let test_pipeline_stall_proportional () =
  (* The decode-stall option serializes: its cost is exactly one cycle
     per expansion, the paper's "proportional to the total number of
     expansions". *)
  let entry = Workload.Suite.get ~dyn_target:30_000 Workload.Profile.tiny in
  let set =
    Dise_core.Prodset.resolve_labels
      (Program.Image.symbol entry.Workload.Suite.image)
      (Dise_core.Lang.parse
         "P1: T.OPCLASS == store -> R1\nR1: lda $dr1, 0(T.RS)\n    T.INSN\n")
  in
  let run mode =
    let engine = Dise_core.Engine.create set in
    let m =
      Machine.create ~expander:(Dise_core.Engine.expander engine)
        entry.Workload.Suite.image
    in
    Pipeline.run (Config.with_dise_decode mode Config.default) m
  in
  let free = run Config.Free in
  let stall = run Config.Stall_per_expansion in
  check int_ "stall = free + expansions"
    (free.Stats.cycles + free.Stats.expansions)
    stall.Stats.cycles

let test_pipeline_controller_rt_misses_cost () =
  (* A tiny RT forces misses; execution must be slower than with a
     perfect RT. *)
  let entry = Workload.Suite.get ~dyn_target:30_000 Workload.Profile.tiny in
  let set =
    Dise_core.Prodset.resolve_labels
      (Program.Image.symbol entry.Workload.Suite.image)
      (Dise_core.Lang.parse
         {|
         P1: T.OPCLASS == store -> R1
         P2: T.OPCLASS == load -> R2
         R1: srl T.RS, #26, $dr1
             T.INSN
         R2: srl T.RS, #25, $dr1
             T.INSN
         |})
  in
  let run rt_perfect =
    let engine = Dise_core.Engine.create set in
    let m =
      Machine.create ~expander:(Dise_core.Engine.expander engine)
        entry.Workload.Suite.image
    in
    let controller =
      Controller.create
        (if rt_perfect then Controller.perfect_config
         else { Controller.default_config with rt_entries = 2; rt_assoc = 1 })
        set
    in
    Pipeline.run ~controller Config.default m
  in
  let perfect = run true in
  let tiny_rt = run false in
  check int_ "perfect RT never stalls" 0 perfect.Stats.rt_misses;
  check bool_ "tiny RT misses" true (tiny_rt.Stats.rt_misses > 0);
  check bool_ "RT misses cost cycles" true
    (tiny_rt.Stats.cycles > perfect.Stats.cycles)

let test_pipeline_workload_end_to_end () =
  let entry = Workload.Suite.get ~dyn_target:50_000 Workload.Profile.tiny in
  let m = Machine.create entry.Workload.Suite.image in
  let stats = Pipeline.run Config.default m in
  check bool_ "cycles positive" true (stats.Stats.cycles > 0);
  check bool_ "ipc sane" true (Stats.ipc stats > 0.2 && Stats.ipc stats < 4.0);
  check int_ "retired everything" stats.Stats.retired stats.Stats.app_instrs

(* --- steady-state allocation -------------------------------------------

   The claim on [Machine.run_raw] and [Pipeline.consume_raw]: once the
   run is warm (expansions memoized, superblocks compiled, pages
   touched), executing and timing an instruction allocates nothing.
   Minor words are counted between dynamic instructions 100 000 and
   200 000 inside the sink, once for the machine alone and once with
   every record fed to the pipeline. gzip is left out: its superblock
   compilations are still running inside that window. *)

exception Window_done

let window_lo = 100_000
let window_hi = 200_000

let words_per_insn ~pipeline m =
  let p = Pipeline.create Config.default in
  let n = ref 0 and w0 = ref 0. and w1 = ref 0. in
  let sink r =
    if pipeline then Pipeline.consume_raw p r;
    incr n;
    if !n = window_lo then w0 := Gc.minor_words ()
    else if !n = window_hi then begin
      w1 := Gc.minor_words ();
      raise Window_done
    end
  in
  (match Machine.run_raw m sink with
  | _ -> Alcotest.fail "workload halted before the measurement window closed"
  | exception Window_done -> ());
  (!w1 -. !w0) /. float_of_int (window_hi - window_lo)

let alloc_machine ~jit (entry : Workload.Suite.entry) acf =
  let with_engine image prodset =
    let engine = Dise_core.Engine.create ~image prodset in
    let m = Machine.create ~expander:(Dise_core.Engine.expander engine) image in
    if jit then Dise_core.Engine.attach_jit engine m;
    m
  in
  match acf with
  | `Baseline ->
    let m = Machine.create entry.Workload.Suite.image in
    if jit then Machine.enable_jit m;
    m
  | `Mfi_dise3 ->
    let image = entry.Workload.Suite.image in
    let m =
      with_engine image
        (Dise_acf.Mfi.productions_for ~variant:Dise_acf.Mfi.Dise3 image)
    in
    Dise_acf.Mfi.install m ~data_seg:Workload.Codegen.data_segment_id
      ~code_seg:Workload.Codegen.code_segment_id;
    m
  | `Decompress ->
    let r =
      Dise_service.Request.compress_result ~scheme:Dise_acf.Compress.full_dise
        entry
    in
    with_engine r.Dise_acf.Compress.image r.Dise_acf.Compress.prodset

let test_steady_state_allocation () =
  let bound = 0.01 in
  List.iter
    (fun bench ->
      let profile = Option.get (Workload.Profile.find bench) in
      let entry = Workload.Suite.get ~dyn_target:300_000 profile in
      List.iter
        (fun (acf_name, acf) ->
          List.iter
            (fun jit ->
              List.iter
                (fun pipeline ->
                  let w = words_per_insn ~pipeline (alloc_machine ~jit entry acf) in
                  if w > bound then
                    Alcotest.failf
                      "%s %s jit=%b %s: %.3f minor words per instruction (bound %.2f)"
                      bench acf_name jit
                      (if pipeline then "machine+pipeline" else "machine")
                      w bound)
                [ false; true ])
            [ true; false ])
        [ ("baseline", `Baseline); ("mfi-dise3", `Mfi_dise3);
          ("decompress", `Decompress) ])
    [ "bzip2"; "mcf" ]

let suite =
  [
    ("cache basic", `Quick, test_cache_basic);
    ("cache capacity", `Quick, test_cache_capacity);
    ("cache lru", `Quick, test_cache_lru);
    ("cache probe", `Quick, test_cache_probe);
    ("cache validation", `Quick, test_cache_validation);
    ("predictor learns bias", `Quick, test_predictor_learns_bias);
    ("predictor alternation", `Quick, test_predictor_alternating_with_history);
    ("predictor RAS", `Quick, test_predictor_ras);
    ("predictor BTB", `Quick, test_predictor_btb);
    ("predictor perfect", `Quick, test_predictor_perfect);
    ("pipeline width scaling", `Quick, test_pipeline_width_scales_independent_code);
    ("pipeline dependence", `Quick, test_pipeline_dependence_serializes);
    ("pipeline icache cost", `Quick, test_pipeline_icache_miss_costs);
    ("pipeline mispredict cost", `Quick, test_pipeline_mispredict_penalty);
    ("pipeline dcache cost", `Quick, test_pipeline_dcache_miss_costs);
    ("pipeline dise stall modes", `Quick, test_pipeline_dise_stall_mode);
    ("pipeline stall proportional", `Quick, test_pipeline_stall_proportional);
    ("pipeline RT miss cost", `Quick, test_pipeline_controller_rt_misses_cost);
    ("pipeline workload end-to-end", `Quick, test_pipeline_workload_end_to_end);
    ("steady-state words per instruction", `Quick, test_steady_state_allocation);
  ]
