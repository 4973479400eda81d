(* Tests for the experiment harness: the drivers, normalization,
   figure assembly, and report rendering — on miniature workloads so
   the suite stays fast. *)

open Dise_harness
module W = Dise_workload
module A = Dise_acf
module Config = Dise_uarch.Config
module Controller = Dise_core.Controller
module Stats = Dise_uarch.Stats

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let tiny_spec =
  { Experiment.default_spec with Experiment.dyn_target = 25_000 }

let tiny_entry () = W.Suite.get ~dyn_target:25_000 W.Profile.tiny

let test_baseline_runs () =
  let stats = Experiment.baseline tiny_spec (tiny_entry ()) in
  check bool_ "cycles positive" true (stats.Stats.cycles > 0);
  check int_ "no expansions" 0 stats.Stats.expansions

let test_mfi_dise_costs () =
  let e = tiny_entry () in
  let base = Experiment.baseline tiny_spec e in
  let d3 = Experiment.mfi_dise ~variant:A.Mfi.Dise3 tiny_spec e in
  let d4 = Experiment.mfi_dise ~variant:A.Mfi.Dise4 tiny_spec e in
  check bool_ "MFI slower than baseline" true
    (d3.Stats.cycles > base.Stats.cycles);
  check bool_ "DISE4 at least DISE3" true (d4.Stats.cycles >= d3.Stats.cycles);
  check bool_ "expansions happened" true (d3.Stats.expansions > 500);
  check bool_ "relative > 1" true
    (Experiment.relative d3 ~baseline:base > 1.0)

let test_mfi_rewrite_costs () =
  let e = tiny_entry () in
  let base = Experiment.baseline tiny_spec e in
  let rw = Experiment.mfi_rewrite tiny_spec e in
  check bool_ "rewriting slower than baseline" true
    (rw.Stats.cycles > base.Stats.cycles);
  check int_ "no DISE expansions under rewriting" 0 rw.Stats.expansions;
  check bool_ "more instructions retired" true
    (rw.Stats.retired > base.Stats.retired)

let test_compress_cached () =
  Experiment.clear_cache ();
  let e = tiny_entry () in
  let a = Experiment.compress_result ~scheme:A.Compress.full_dise e in
  let b = Experiment.compress_result ~scheme:A.Compress.full_dise e in
  check bool_ "cache returns same result" true (a == b);
  let c = Experiment.compress_result ~scheme:A.Compress.dedicated e in
  check bool_ "different scheme recompresses" true (a != c)

let test_decompress_run_clean () =
  let e = tiny_entry () in
  let stats =
    Experiment.decompress_run ~scheme:A.Compress.full_dise tiny_spec e
  in
  check bool_ "expansions happened" true (stats.Stats.expansions > 100)

let test_decompress_composed () =
  let e = tiny_entry () in
  let plain =
    Experiment.decompress_run ~scheme:A.Compress.full_dise tiny_spec e
  in
  let composed =
    Experiment.decompress_run ~scheme:A.Compress.full_dise ~mfi:`Composed
      tiny_spec e
  in
  check bool_ "composition adds work" true
    (composed.Stats.retired > plain.Stats.retired);
  check bool_ "composition costs cycles" true
    (composed.Stats.cycles > plain.Stats.cycles)

let test_decompress_rewritten () =
  let e = tiny_entry () in
  let stats =
    Experiment.decompress_run ~scheme:A.Compress.full_dise ~rewritten:true
      tiny_spec e
  in
  (* The rewritten binary carries the SFI checks as ordinary (possibly
     compressed) instructions. *)
  check bool_ "runs clean with checks inside" true (stats.Stats.cycles > 0)

let test_controller_spec_wired () =
  let e = tiny_entry () in
  let controller =
    { Controller.default_config with rt_entries = 4; rt_assoc = 1 }
  in
  let spec = { tiny_spec with Experiment.controller = Some controller } in
  let stats = Experiment.decompress_run ~scheme:A.Compress.full_dise spec e in
  check bool_ "tiny RT misses show up" true (stats.Stats.rt_misses > 10);
  check bool_ "stalls accounted" true (stats.Stats.dise_stall_cycles > 0)

let micro_opts =
  {
    Figures.dyn_target = 25_000;
    benchmarks = [ "bzip2"; "mcf" ];
    progress = ignore;
    jobs = 1;
    manifest = None;
  }

let test_fig6_top_structure () =
  let fig = Figures.fig6_top micro_opts in
  check int_ "five series" 5 (List.length fig.Figures.series);
  List.iter
    (fun (s : Figures.series) ->
      check int_ "two benchmarks per series" 2 (List.length s.Figures.values);
      List.iter
        (fun (_, v) ->
          if not (v > 0.9 && v < 10.) then
            Alcotest.failf "implausible normalized time %.3f in %s" v
              s.Figures.label)
        s.Figures.values)
    fig.Figures.series;
  (* DISE3 should beat rewriting on the geomean. *)
  let geo label =
    match
      List.find_opt (fun s -> s.Figures.label = label) fig.Figures.series
    with
    | Some s -> Report.geomean s
    | None -> Alcotest.failf "missing series %s" label
  in
  check bool_ "DISE3 beats rewriting" true (geo "DISE3" < geo "rewrite");
  check bool_ "DISE3 beats DISE4" true (geo "DISE3" <= geo "DISE4")

let test_fig7_ratio_structure () =
  let fig = Figures.fig7_ratio micro_opts in
  check int_ "twelve series (6 schemes x 2)" 12 (List.length fig.Figures.series);
  List.iter
    (fun (s : Figures.series) ->
      List.iter
        (fun (_, v) ->
          if not (v > 0.1 && v < 1.05) then
            Alcotest.failf "implausible ratio %.3f in %s" v s.Figures.label)
        s.Figures.values)
    fig.Figures.series

let test_figures_registry () =
  check int_ "eight panels" 8 (List.length Figures.all);
  check bool_ "lookup works" true (Figures.by_id "fig8-rt" <> None);
  check bool_ "unknown id rejected" true (Figures.by_id "fig9" = None)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_render_and_csv () =
  let fig =
    {
      Figures.id = "t";
      title = "T";
      ylabel = "y";
      series =
        [
          { Figures.label = "a"; values = [ ("x", 1.0); ("y", 2.0) ] };
          { Figures.label = "b"; values = [ ("x", 4.0); ("y", 1.0) ] };
        ];
      stacks = [];
    }
  in
  let text = Format.asprintf "%a" (Report.render ?cpi_stacks:None) fig in
  check bool_ "header present" true (contains text "a");
  check bool_ "geomean row" true (contains text "geomean");
  let csv = Report.to_csv fig in
  check bool_ "csv header" true (contains csv "benchmark,a,b");
  check bool_ "csv row" true (contains csv "x,1.0000,4.0000");
  (* to_csv must end with the same geomean row render prints:
     geomean(1,2) = sqrt 2, geomean(4,1) = 2. *)
  check bool_ "csv geomean row" true (contains csv "geomean,1.4142,2.0000");
  check bool_ "geomean value" true
    (abs_float (Report.geomean (List.hd fig.Figures.series) -. sqrt 2.) < 1e-9)

(* Timing panels must surface their per-cell statistics (the CPI-stack
   report columns); the rendered stack table and CSV must agree with
   the figure. *)
let test_report_cpi_stacks () =
  Experiment.clear_cache ();
  let fig = Figures.fig6_top micro_opts in
  check bool_ "stacks populated" true (List.length fig.Figures.stacks > 0);
  check int_ "one stack per timing cell" (5 * 2)
    (List.length fig.Figures.stacks);
  let text = Format.asprintf "%a" (Report.render ~cpi_stacks:true) fig in
  check bool_ "stack table rendered" true (contains text "CPI stack");
  check bool_ "bucket column present" true (contains text "rep_redirect");
  let csv = Report.cpi_to_csv fig in
  check bool_ "cpi csv header" true
    (contains csv "series,benchmark,cycles,base,icache");
  (* fig7-ratio is a static panel: no timing cells, no stacks. *)
  Experiment.clear_cache ();
  let ratio = Figures.fig7_ratio micro_opts in
  check int_ "ratio panel has no stacks" 0 (List.length ratio.Figures.stacks)

(* --- worker pool -------------------------------------------------------- *)

let test_pool_order_preserved () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  List.iter
    (fun jobs ->
      let r = Pool.run ~jobs tasks in
      check int_ "result count" 37 (Array.length r);
      Array.iteri
        (fun i v ->
          check int_ (Printf.sprintf "slot %d (jobs=%d)" i jobs) (i * i) v)
        r)
    [ 1; 2; 4; 64 ]

let test_pool_jobs_clamped () =
  (* jobs <= 0 behaves like serial rather than erroring. *)
  let r = Pool.run ~jobs:0 [| (fun () -> 7) |] in
  check int_ "ran" 7 r.(0);
  let r = Pool.run ~jobs:(-3) [| (fun () -> 8); (fun () -> 9) |] in
  check int_ "ran 0" 8 r.(0);
  check int_ "ran 1" 9 r.(1)

exception Boom of int

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      let tasks =
        Array.init 8 (fun i () -> if i >= 5 then raise (Boom i) else i)
      in
      match Pool.run ~jobs tasks with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        (* Lowest-indexed failure wins, independent of scheduling. *)
        check int_ (Printf.sprintf "lowest failure (jobs=%d)" jobs) 5 i)
    [ 1; 3 ]

let test_pool_empty_and_map_list () =
  check int_ "empty task array" 0 (Array.length (Pool.run ~jobs:4 [||]));
  check bool_ "map_list" true
    (Pool.map_list ~jobs:3 (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ])

(* Helper domains outlive a batch: a second batch runs on the domains
   the first one spawned, not on new ones. Tasks sleep so the helper
   certainly claims some of them. *)
let test_pool_helpers_persist () =
  let caller = (Domain.self () :> int) in
  let batch () =
    let ids =
      Pool.run ~jobs:2
        (Array.init 8 (fun _ () ->
             Unix.sleepf 0.005;
             (Domain.self () :> int)))
    in
    List.sort_uniq compare
      (List.filter (fun d -> d <> caller) (Array.to_list ids))
  in
  let first = batch () in
  let second = batch () in
  check bool_ "first batch used a helper" true (first <> []);
  check bool_ "second batch used a helper" true (second <> []);
  check (Alcotest.list int_) "same helper domains" first second

(* A pool call made from inside a pool task runs serially and returns. *)
let test_pool_nested_call () =
  let r =
    Pool.run ~jobs:2
      (Array.init 4 (fun i () ->
           Array.fold_left ( + ) 0
             (Pool.run ~jobs:2 (Array.init 3 (fun k () -> (10 * i) + k)))))
  in
  check (Alcotest.array int_) "nested sums" [| 3; 33; 63; 93 |] r

(* The tentpole guarantee: a figure built on 4 worker domains renders
   bit-identically to the serial build. *)
let test_parallel_figures_deterministic () =
  Experiment.clear_cache ();
  let serial = Figures.fig6_top { Figures.quick_opts with Figures.jobs = 1 } in
  Experiment.clear_cache ();
  let parallel = Figures.fig6_top { Figures.quick_opts with Figures.jobs = 4 } in
  let render f = Format.asprintf "%a" (Report.render ?cpi_stacks:None) f in
  check Alcotest.string "rendered figures identical" (render serial)
    (render parallel);
  check Alcotest.string "csv identical" (Report.to_csv serial)
    (Report.to_csv parallel)

(* --- differential execution -------------------------------------------- *)

let tiny_image (e : W.Suite.entry) = e.W.Suite.image

let test_diffexec_mfi_stream_equivalent () =
  let e = tiny_entry () in
  let img = tiny_image e in
  let set = A.Mfi.productions_for img in
  let engine = Dise_core.Engine.create set in
  let right =
    Diffexec.side
      ~expander:(Dise_core.Engine.expander engine)
      ~init:(fun m ->
        A.Mfi.install m ~data_seg:W.Codegen.data_segment_id
          ~code_seg:W.Codegen.code_segment_id)
      img
  in
  match Diffexec.run ~left:(Diffexec.side img) ~right () with
  | Diffexec.Equivalent { left_steps; right_steps } ->
    check bool_ "right executed more (the checks)" true
      (right_steps > left_steps)
  | Diffexec.Diverged d ->
    Alcotest.failf "unexpected divergence: %s" d.Diffexec.reason

let test_diffexec_decompression_equivalent () =
  let e = tiny_entry () in
  let r = Experiment.compress_result ~scheme:A.Compress.full_dise e in
  let engine = Dise_core.Engine.create r.A.Compress.prodset in
  let right =
    Diffexec.side ~expander:(Dise_core.Engine.expander engine)
      r.A.Compress.image
  in
  (* Decompression reconstructs the whole stream: keep everything. *)
  match
    Diffexec.run
      ~keep:(fun _ -> true)
      ~left:(Diffexec.side (tiny_image e))
      ~right ()
  with
  | Diffexec.Equivalent _ -> ()
  | Diffexec.Diverged d ->
    Alcotest.failf "decompression diverged: %s (%s / %s)" d.Diffexec.reason
      (Option.value ~default:"-" d.Diffexec.left)
      (Option.value ~default:"-" d.Diffexec.right)

let test_diffexec_detects_corruption () =
  (* A deliberately broken "transformation": drop one instruction. *)
  let src = "main:\n add zero, #1, r1\n add r1, #2, r2\n add r2, #3, r3\n halt\n" in
  let ok = Dise_isa.Program.layout (Dise_isa.Asm.parse src) in
  let broken =
    Dise_isa.Program.layout
      (Dise_isa.Asm.parse "main:\n add zero, #1, r1\n add r2, #3, r3\n halt\n")
  in
  match
    Diffexec.run ~left:(Diffexec.side ok) ~right:(Diffexec.side broken) ()
  with
  | Diffexec.Diverged d ->
    check int_ "diverges at the dropped instruction" 1 d.Diffexec.position
  | Diffexec.Equivalent _ -> Alcotest.fail "corruption not detected"

let suite =
  [
    ("baseline runs", `Quick, test_baseline_runs);
    ("diffexec: MFI stream-equivalent", `Quick,
     test_diffexec_mfi_stream_equivalent);
    ("diffexec: decompression equivalent", `Quick,
     test_diffexec_decompression_equivalent);
    ("diffexec: detects corruption", `Quick, test_diffexec_detects_corruption);
    ("MFI DISE costs", `Quick, test_mfi_dise_costs);
    ("MFI rewrite costs", `Quick, test_mfi_rewrite_costs);
    ("compress cached", `Quick, test_compress_cached);
    ("decompress run clean", `Quick, test_decompress_run_clean);
    ("decompress composed", `Quick, test_decompress_composed);
    ("decompress rewritten", `Quick, test_decompress_rewritten);
    ("controller spec wired", `Quick, test_controller_spec_wired);
    ("pool preserves order", `Quick, test_pool_order_preserved);
    ("pool clamps jobs", `Quick, test_pool_jobs_clamped);
    ("pool propagates exceptions", `Quick, test_pool_exception_propagates);
    ("pool empty and map_list", `Quick, test_pool_empty_and_map_list);
    ("parallel figures deterministic", `Slow,
     test_parallel_figures_deterministic);
    ("fig6-top structure", `Slow, test_fig6_top_structure);
    ("fig7-ratio structure", `Slow, test_fig7_ratio_structure);
    ("figures registry", `Quick, test_figures_registry);
    ("report render and csv", `Quick, test_report_render_and_csv);
    ("report cpi stacks", `Slow, test_report_cpi_stacks);
    ("pool helpers outlive a batch", `Quick, test_pool_helpers_persist);
    ("pool nested call", `Quick, test_pool_nested_call);
  ]
