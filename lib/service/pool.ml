let default_jobs () = Domain.recommended_domain_count ()

(* Outcome of one task. Stored per-index so reassembly is positional;
   an [option] wrapper distinguishes "never ran" (only possible if a
   worker's bookkeeping raised, which the batch re-raises) from a
   recorded result. *)
type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

(* Run one task, reporting wall-clock to the probe when one is
   attached. The [None] path is exactly [task ()]: no timestamp reads,
   no allocation. *)
let timed probe i ~domain task =
  match probe with
  | None -> task ()
  | Some p ->
    let t0 = Unix.gettimeofday () in
    let r = task () in
    p i ~domain (Unix.gettimeofday () -. t0);
    r

let outcome_of probe i ~domain task =
  try Ok (timed probe i ~domain task)
  with e -> Error (e, Printexc.get_raw_backtrace ())

let run_outcomes_serial probe tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results = Array.make n (outcome_of probe 0 ~domain:0 tasks.(0)) in
    for i = 1 to n - 1 do
      results.(i) <- outcome_of probe i ~domain:0 tasks.(i)
    done;
    results
  end

(* --- helper domains ---------------------------------------------------

   Helper domains are spawned lazily, once per index per process, and
   parked on [wake] between batches: spawning and joining domains on
   every batch (one per serve chunk) leaves resident memory behind on
   OCaml 5.1, so a long serve session grew by hundreds of MB. Helper
   [k] (1-based) takes part in a batch only when [k <= helpers]; the
   caller is worker 0. One batch runs at a time: a call that finds the
   helpers busy (a nested call from inside a pool task, or a second
   domain's batch in flight) runs serially in its own domain instead
   of waiting. Parked helpers never block process exit: the runtime
   does not join domains when the main program ends.

   There are at most [max_helpers], so a batch runs on at most
   [max_helpers + 1] workers whatever its [jobs]. Every minor
   collection stops all domains, parked ones included: parking one
   domain per requested job made allocation-heavy code several times
   slower for the rest of the process once a [jobs = 64] batch had
   run, and more workers than cores never made a batch faster. *)

let max_helpers = Int.max 1 (Domain.recommended_domain_count () - 1)

type batch = {
  work : int -> unit;  (* worker [k] runs [work k] *)
  helpers : int;  (* helpers [1..helpers] take part *)
}

(* Installed between batches, so a finished batch's closure (its tasks
   and results) is not kept alive by the parked helpers. *)
let idle = { work = ignore; helpers = 0 }
let lock = Mutex.create ()
let wake = Condition.create ()
let drained = Condition.create ()

(* All guarded by [lock]. *)
let current = ref idle
let epoch = ref 0  (* bumped by every batch *)
let pending = ref 0  (* helpers of the current batch still working *)
let failure : (exn * Printexc.raw_backtrace) option ref = ref None
let spawned = ref 0

let busy = Atomic.make false

(* True on helper domains, and on the calling domain while it works
   its own share of a batch: a [Pool] call made there runs serially. *)
let in_task = Domain.DLS.new_key (fun () -> false)

(* [work k], keeping the batch's first escaping exception. The task
   bodies catch their own ([outcome_of]), so this only guards the
   bookkeeping around them: a helper must survive to report back. *)
let guarded work k =
  match work k with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock lock;
    if Option.is_none !failure then failure := Some (e, bt);
    Mutex.unlock lock

let rec helper_loop k seen =
  Mutex.lock lock;
  while !epoch = seen do
    Condition.wait wake lock
  done;
  let seen = !epoch and b = !current in
  Mutex.unlock lock;
  if k <= b.helpers then begin
    guarded b.work k;
    Mutex.lock lock;
    decr pending;
    if !pending = 0 then Condition.signal drained;
    Mutex.unlock lock
  end;
  helper_loop k seen

(* Run [work 0] here and [work k] for [k] in [1..helpers] on the
   helpers, spawning any not yet spawned; return once all of them have
   finished. Called with [busy] held, so no other domain spawns helpers
   or moves [epoch] meanwhile; spawning outside [lock] means a failed
   spawn leaves no lock held. *)
let run_on_helpers ~helpers work =
  let seen = !epoch in
  for k = !spawned + 1 to helpers do
    ignore
      (Domain.spawn (fun () ->
           Domain.DLS.set in_task true;
           helper_loop k seen));
    spawned := k
  done;
  Mutex.lock lock;
  current := { work; helpers };
  incr epoch;
  pending := helpers;
  failure := None;
  Condition.broadcast wake;
  Mutex.unlock lock;
  Domain.DLS.set in_task true;
  guarded work 0;
  Domain.DLS.set in_task false;
  Mutex.lock lock;
  while !pending > 0 do
    Condition.wait drained lock
  done;
  let f = !failure in
  current := idle;
  Mutex.unlock lock;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) f

let run_outcomes_parallel ~jobs probe (tasks : (unit -> 'a) array) =
  let n = Array.length tasks in
  let results : 'a outcome option array = Array.make n None in
  let next = Atomic.make 0 in
  let worker domain =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (outcome_of probe i ~domain tasks.(i));
        loop ()
      end
    in
    loop ()
  in
  Fun.protect
    ~finally:(fun () -> Atomic.set busy false)
    (fun () ->
      run_on_helpers ~helpers:(Int.min (Int.min jobs n - 1) max_helpers) worker);
  Array.init n (fun i ->
      match results.(i) with
      | Some r -> r
      | None -> assert false (* every index < n was claimed and finished *))

let run_outcomes ?jobs ?probe tasks =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  if
    jobs = 1
    || Array.length tasks <= 1
    || Domain.DLS.get in_task
    || not (Atomic.compare_and_set busy false true)
  then run_outcomes_serial probe tasks
  else run_outcomes_parallel ~jobs probe tasks

let run ?jobs ?probe tasks =
  let outcomes = run_outcomes ?jobs ?probe tasks in
  (* Re-raise the lowest-indexed failure, deterministically. *)
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    outcomes;
  Array.map (function Ok v -> v | Error _ -> assert false) outcomes

let map_list ?jobs f xs =
  Array.to_list (run ?jobs (Array.of_list (List.map (fun x () -> f x) xs)))
