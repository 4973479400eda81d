(* Pinned timing-model outputs. [Stats.to_json] of a fixed set of
   cells was recorded once and checked in as golden/pipeline_stats.json;
   any difference in any counter — cycles, retired, the CPI stack,
   cache and predictor counts — fails the test. This is the fixed
   reference that "byte-identical" refactors of the simulation path are
   proven against, not another run of the same commit.

   To re-record after an intended model change, run the suite once: a
   failing run writes the full record it computed to
   pipeline_stats.actual.json (next to the test binary, under
   _build/default/test); copy that over golden/pipeline_stats.json and
   say in CHANGES.md which cells moved and why. *)

open Dise_uarch
module Request = Dise_service.Request
module Json = Dise_telemetry.Json
module Compress = Dise_acf.Compress
module Mfi = Dise_acf.Mfi
module Controller = Dise_core.Controller

let golden_file = "golden/pipeline_stats.json"
let actual_file = "pipeline_stats.actual.json"
let dyn = 20_000

let mfi3 = Request.Mfi_dise Mfi.Dise3

let decompress =
  Request.Decompress { scheme = Compress.full_dise; mfi = `None; rewritten = false }

let cells =
  let grid =
    List.concat_map
      (fun bench ->
        List.map
          (fun (tag, acf) ->
            (bench ^ "/" ^ tag, Request.v ~dyn_target:dyn ~acf ~jit:true bench))
          [ ("baseline", Request.Baseline); ("mfi-dise3", mfi3);
            ("decompress", decompress) ])
      [ "bzip2"; "gzip"; "mcf"; "parser" ]
  in
  grid
  @ [
      ( "gzip/decompress/rt",
        Request.v ~dyn_target:dyn ~acf:decompress ~jit:true
          ~controller:Controller.default_config "gzip" );
      ( "bzip2/mfi-dise3/perfect-bp",
        Request.v ~dyn_target:dyn ~acf:mfi3 ~jit:true
          ~machine:{ Config.default with Config.perfect_branch_pred = true }
          "bzip2" );
      ( "mcf/mfi-dise3/stall-per-expansion",
        Request.v ~dyn_target:dyn ~acf:mfi3 ~jit:true
          ~machine:(Config.with_dise_decode Config.Stall_per_expansion Config.default)
          "mcf" );
      ( "parser/decompress/no-jit",
        Request.v ~dyn_target:dyn ~acf:decompress ~jit:false "parser" );
    ]

(* Simulate every cell afresh: no disk cache, memos cleared, so each
   record comes from the pipeline and not from an earlier test's run. *)
let record () =
  let saved = Request.disk_cache () in
  Request.set_disk_cache None;
  Request.clear_memory ();
  Fun.protect
    ~finally:(fun () -> Request.set_disk_cache saved)
    (fun () ->
      Json.Obj
        (List.map
           (fun (name, req) ->
             match Request.run_ext req with
             | Ok (stats, _) -> (name, Stats.to_json stats)
             | Error d -> Alcotest.failf "%s: %s" name (Dise_isa.Diag.to_string d))
           cells))

let test_pinned_stats () =
  let golden =
    Json.parse (In_channel.with_open_bin golden_file In_channel.input_all)
  in
  let actual = record () in
  let differing =
    List.filter_map
      (fun (name, _) ->
        let got = Json.member name actual and want = Json.member name golden in
        if got = want then None else Some name)
      cells
  in
  if differing <> [] then begin
    Out_channel.with_open_bin actual_file (fun oc ->
        output_string oc (Json.to_string ~indent:true actual);
        output_char oc '\n');
    Alcotest.failf "pinned stats differ in %s (full record written to %s)"
      (String.concat ", " differing) (Filename.concat (Sys.getcwd ()) actual_file)
  end;
  Alcotest.(check int) "every cell pinned" (List.length cells)
    (match golden with Json.Obj l -> List.length l | _ -> 0)

let suite =
  [ Alcotest.test_case "pipeline stats match the pinned record" `Slow
      test_pinned_stats ]
