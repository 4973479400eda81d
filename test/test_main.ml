(* Test runner: one alcotest suite per library area. *)

(* Re-exec dispatch: serve-tier workers and the fault matrix's SIGKILL
   victim re-execute this binary, so both hooks must run before
   anything else — the child never enters alcotest. *)
let () = Dise_service.Coordinator.worker_child_main ()
let () = Dise_fuzz.Faults.journal_child_main ()

let () =
  Alcotest.run "dise"
    [
      ("isa", Test_isa.suite);
      ("machine", Test_machine.suite);
      ("core", Test_core_dise.suite);
      ("uarch", Test_uarch.suite);
      ("golden", Test_golden.suite);
      ("workload", Test_workload.suite);
      ("acf", Test_acf.suite);
      ("harness", Test_harness.suite);
      ("os", Test_os.suite);
      ("props", Test_props.suite);
      ("telemetry", Test_telemetry.suite);
      ("metrics", Test_metrics.suite);
      ("service", Test_service.suite);
      ("synthesize", Test_synthesize.suite);
      ("resilience", Test_resilience.suite);
      ("coordinator", Test_coordinator.suite);
      ("fuzz", Test_fuzz.suite);
    ]
