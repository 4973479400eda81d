(* Measurement plumbing shared by the workloads: host clock, sample
   statistics, span recording with Chrome-trace output, peak RSS, and
   the expected-output records. *)

module Json = Dise_telemetry.Json
module Trace = Dise_telemetry.Trace

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- sample statistics --------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, as numpy's default and
   Python's [statistics.quantiles(..., method="inclusive")] do. *)
let quantile xs q =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.0
  | n ->
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Samples strictly above the [q]-quantile: the tail percentile must
   leave at least ten of them. *)
let beyond xs q =
  let cut = quantile xs q in
  List.length (List.filter (fun x -> x > cut) xs)

(* --- spans ---------------------------------------------------------------- *)

(* Spans are kept in memory while the workload runs and written as one
   Chrome trace_event file at the end, so the trace writer's I/O never
   lands inside a timed call. Timestamps are host microseconds since the
   start of the run. *)
type span = {
  name : string;
  layer : string;
  op : int;  (** the op this call belongs to (-1 for set-up) *)
  start : float;
  dur : float;  (** seconds *)
}

let spans : span list ref = ref []
let tracing = ref false
let origin = ref (now ())

let record ~layer ~name ~op ~start ~dur =
  if !tracing then spans := { name; layer; op; start; dur } :: !spans

(* Time one call into a layer; the span is recorded only when tracing. *)
let timed ~layer ~name ~op f =
  let t0 = now () in
  let r = f () in
  let dur = now () -. t0 in
  record ~layer ~name ~op ~start:t0 ~dur;
  (r, dur)

let layer_tracks =
  [
    "workload"; "acf.compress"; "machine"; "core.engine"; "uarch.pipeline";
    "service.request"; "service.cache"; "service.coordinator";
    "synthesize.score";
  ]

let write_trace path =
  let oc = open_out path in
  let t = Trace.to_channel oc in
  List.iteri
    (fun tid name -> Trace.metadata_thread t ~tid ~name)
    layer_tracks;
  let tid_of layer =
    let rec go i = function
      | [] -> 0
      | l :: rest -> if l = layer then i else go (i + 1) rest
    in
    go 0 layer_tracks
  in
  List.iter
    (fun s ->
      Trace.complete t ~name:s.name ~cat:s.layer
        ~ts:(int_of_float ((s.start -. !origin) *. 1e6))
        ~dur:(max 1 (int_of_float (s.dur *. 1e6)))
        ~tid:(tid_of s.layer)
        ~args:[ ("op", Json.Int s.op) ])
    (List.rev !spans);
  Trace.close t;
  close_out oc

(* --- memory ------------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a process, in kB; 0 once it is gone. *)
let hwm_kb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

(* Direct children of [pid] (the serve tier's worker processes). *)
let children pid =
  match
    open_in (Printf.sprintf "/proc/%d/task/%d/children" pid pid)
  with
  | exception Sys_error _ -> []
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    String.split_on_char ' ' line
    |> List.filter_map int_of_string_opt

(* --- expected outputs ----------------------------------------------------- *)

(* One file per workload: a JSON object from cell id to the output that
   cell produced at the commit that recorded it. Floats are recorded as
   "%.17g" strings so the comparison is exact. *)
let exact_float f = Json.String (Printf.sprintf "%.17g" f)

let read_records path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Json.Obj members ->
    let tbl = Hashtbl.create (List.length members) in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k (Json.to_string v)) members;
    tbl
  | _ -> failwith (path ^ ": expected a JSON object")

let write_records path members =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Json.escape_to_buffer buf k;
      Buffer.add_string buf ": ";
      Json.to_buffer buf v)
    members;
  Buffer.add_string buf "\n}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

(* Compare one op's output with its record; a mismatch or a missing
   record fails the op. The first few mismatches are reported on
   stderr. *)
let mismatches = ref 0

let check records ~id actual =
  let got = Json.to_string actual in
  match Hashtbl.find_opt records id with
  | Some want when want = got -> true
  | want ->
    incr mismatches;
    if !mismatches <= 5 then
      Printf.eprintf "perfbench: output mismatch for %s\n  expected %s\n  got      %s\n%!"
        id
        (Option.value want ~default:"(no record)")
        got;
    false
