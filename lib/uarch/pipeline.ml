module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Machine = Dise_machine.Machine
module Event = Dise_machine.Machine.Event
module Controller = Dise_core.Controller
module Cpi_stack = Dise_telemetry.Cpi_stack
module Trace = Dise_telemetry.Trace
module Profile = Dise_telemetry.Profile
module Json = Dise_telemetry.Json

(* Redirect causes, for CPI attribution of the fetch bubble the next
   instruction observes. *)
let redirect_none = 0
let redirect_mispredict = 1
let redirect_replacement = 2  (* taken replacement or DISE-internal branch *)

type t = {
  cfg : Config.t;
  icache : Cache.t option;
  dcache : Cache.t option;
  l2 : Cache.t option;
  bp : Branch_pred.t;
  controller : Controller.t option;
  stats : Stats.t;
  trace : Trace.t option;
  profile : Profile.t option;
  trace_lanes : int;
  reg_ready : int array;
  rob : int array;  (* ring buffer of retire timestamps *)
  issue_ring : int array;  (* last [width] issue timestamps *)
  mutable issue_head : int;
  mutable serial_stalls : int;
  mutable seq : int;
  mutable fetch_cycle : int;
  mutable fetch_count : int;
  mutable last_line : int;
  mutable last_l2_ifetch_line : int;
  mutable last_retire : int;
  mutable pending_redirect : int;
      (* cause of the most recent redirect, consumed by the first
         instruction fetched after it *)
  mutable dmiss : bool;
      (* the instruction currently being consumed took an L1-D load miss *)
  mutable finished : bool;
  raw_scratch : Machine.Raw.t;
      (* backing store for the [consume] (event-typed) entry point:
         events are translated into raw form so there is exactly one
         consumption path *)
}

let make_cache = function
  | None -> None
  | Some { Config.size_bytes; assoc; line_bytes } ->
    Some (Cache.create ~size_bytes ~assoc ~line_bytes)

let create ?controller ?trace ?profile (cfg : Config.t) =
  let trace_lanes = 4 * Int.max 1 cfg.width in
  (match trace with
  | None -> ()
  | Some tr ->
    Trace.metadata_thread tr ~tid:0 ~name:"stalls+redirects";
    for i = 1 to trace_lanes do
      Trace.metadata_thread tr ~tid:i ~name:(Printf.sprintf "pipe slot %d" (i - 1))
    done);
  {
    cfg;
    icache = make_cache cfg.icache;
    dcache = make_cache cfg.dcache;
    l2 = make_cache cfg.l2;
    bp =
      (if cfg.perfect_branch_pred then Branch_pred.perfect ()
       else Branch_pred.create ());
    controller;
    stats = Stats.create ();
    trace;
    profile;
    trace_lanes;
    reg_ready = Array.make (Reg.num_arch + Reg.num_dedicated) 0;
    rob = Array.make (Int.max cfg.rob_size cfg.width) 0;
    issue_ring = Array.make (Int.max 1 cfg.width) 0;
    issue_head = 0;
    serial_stalls = 0;
    seq = 0;
    fetch_cycle = 0;
    fetch_count = 0;
    last_line = -1;
    last_l2_ifetch_line = min_int;
    last_retire = 0;
    pending_redirect = redirect_none;
    dmiss = false;
    finished = false;
    raw_scratch = Machine.Raw.make ();
  }

(* Penalty of an L1 miss: the L2 access, plus memory on an L2 miss.
   [prefetched] marks L2 misses whose latency a next-line prefetcher
   would have hidden (sequential instruction streaming): they cost only
   the L2 access. *)
let l1_miss_penalty ~prefetched t addr =
  match t.l2 with
  | None -> t.cfg.l2_latency
  | Some l2 -> (
    t.stats.Stats.l2_accesses <- t.stats.Stats.l2_accesses + 1;
    match Cache.access l2 addr with
    | `Hit -> t.cfg.l2_latency
    | `Miss ->
      t.stats.Stats.l2_misses <- t.stats.Stats.l2_misses + 1;
      if prefetched then t.cfg.l2_latency
      else t.cfg.l2_latency + t.cfg.mem_latency)

let redirect_depth t =
  t.cfg.depth + (match t.cfg.dise_decode with Config.Extra_stage -> 1 | _ -> 0)

(* Restart fetch after a pipeline redirect resolving at [cycle].
   [cause] tells CPI attribution which bucket the bubble belongs to
   once the next fetched instruction exposes it. *)
let redirect t ~cause cycle =
  t.fetch_cycle <- Int.max t.fetch_cycle (cycle + redirect_depth t);
  t.fetch_count <- 0;
  t.last_line <- -1;
  t.pending_redirect <- cause;
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.instant tr
      ~name:
        (if cause = redirect_mispredict then "mispredict-redirect"
         else "replacement-redirect")
      ~cat:"redirect" ~ts:cycle ~tid:0 ~args:[]

(* End the current fetch group (taken branch or stall). *)
let break_group t extra =
  t.fetch_cycle <- t.fetch_cycle + 1 + extra;
  t.fetch_count <- 0

(* A serializing stall (I-fetch miss, DISE decode stall, PT/RT miss
   flush): the whole pipeline stops or is flushed, so the cycles
   cannot be hidden behind front-end slack, ROB back-pressure, or
   spare issue slots the way an ordinary fetch bubble can. Every
   timestamp in this model is relative and all microarchitectural
   state (caches, predictor) is timing-independent, so a
   whole-timeline offset accounts for these stalls exactly: accumulate
   them and add the total to the final cycle count. Each stall is
   charged in full to the CPI bucket of the event that raised it. *)
let serialize_stall t bucket cycles =
  if cycles > 0 then begin
    t.serial_stalls <- t.serial_stalls + cycles;
    let cpi = t.stats.Stats.cpi in
    (match bucket with
    | `Icache -> cpi.Cpi_stack.icache <- cpi.Cpi_stack.icache + cycles
    | `Ptrt -> cpi.Cpi_stack.ptrt_miss <- cpi.Cpi_stack.ptrt_miss + cycles
    | `Decode -> cpi.Cpi_stack.dise_decode <- cpi.Cpi_stack.dise_decode + cycles);
    t.fetch_count <- 0;
    match t.trace with
    | None -> ()
    | Some tr ->
      Trace.instant tr
        ~name:
          (match bucket with
          | `Icache -> "icache-miss-stall"
          | `Ptrt -> "pt/rt-miss-stall"
          | `Decode -> "decode-stall")
        ~cat:"stall" ~ts:t.fetch_cycle ~tid:0
        ~args:[ ("cycles", Json.Int cycles) ]
  end

(* [mem_addr] is the raw-form effective address ([Machine.Raw.no_mem]
   when the instruction made no access; loads/stores always set it, so
   the sentinel is defensively treated as address 0, matching the old
   event path's [None -> 0]). *)
let latency_of t insn ~mem_addr =
  match insn with
  | I.Rop (Op.Mul, _, _, _) | I.Ropi (Op.Mul, _, _, _) -> t.cfg.mul_latency
  | I.Mem ((Op.Ldq | Op.Ldbu), _, _, _) -> (
    t.stats.Stats.dcache_accesses <- t.stats.Stats.dcache_accesses + 1;
    match t.dcache with
    | None -> t.cfg.l1_latency
    | Some dc -> (
      let addr = if mem_addr = Machine.Raw.no_mem then 0 else mem_addr in
      match Cache.access dc addr with
      | `Hit -> t.cfg.l1_latency
      | `Miss ->
        t.stats.Stats.dcache_misses <- t.stats.Stats.dcache_misses + 1;
        t.dmiss <- true;
        t.cfg.l1_latency + l1_miss_penalty ~prefetched:false t addr))
  | I.Mem ((Op.Stq | Op.Stb), _, _, _) ->
    (* Stores retire through a store buffer; charge 1 cycle but track
       the footprint. *)
    t.stats.Stats.dcache_accesses <- t.stats.Stats.dcache_accesses + 1;
    (match t.dcache with
    | None -> ()
    | Some dc -> (
      let addr = if mem_addr = Machine.Raw.no_mem then 0 else mem_addr in
      match Cache.access dc addr with
      | `Hit -> ()
      | `Miss ->
        t.stats.Stats.dcache_misses <- t.stats.Stats.dcache_misses + 1;
        ignore (l1_miss_penalty ~prefetched:false t addr)));
    1
  | _ -> 1

let branch_kind insn =
  match insn with
  | I.Br _ -> Some Branch_pred.Cond
  | I.Jmp _ -> Some Branch_pred.Direct
  | I.Jr r when Reg.equal r Reg.ra -> Some Branch_pred.Return
  | I.Jr _ -> Some Branch_pred.Indirect
  | I.Jal _ | I.Jalr _ -> None  (* handled as calls *)
  | _ -> None

let is_call = function I.Jal _ | I.Jalr _ -> true | _ -> false

(* The scoreboard walk, spelled out per instruction form so the
   per-instruction path calls no closure. [src_ready] is the latest
   ready cycle among the registers [insn] reads. The zero register's
   slot is never written ([set_dest_ready] skips index 0), so reading
   it yields 0, the neutral element; no zero-register test is needed
   on the read side. *)
let src_ready (ready : int array) insn =
  match insn with
  | I.Rop (_, rs, rt, _) | I.Mem ((Op.Stq | Op.Stb), rs, _, rt) ->
    Int.max ready.(Reg.index rs) ready.(Reg.index rt)
  | I.Ropi (_, rs, _, _) | I.Lda (rs, _, _) | I.Mem ((Op.Ldq | Op.Ldbu), rs, _, _)
  | I.Br (_, rs, _) | I.Jr rs | I.Jalr (rs, _) | I.Dbr (_, rs, _) ->
    ready.(Reg.index rs)
  | I.Lui _ | I.Jmp _ | I.Jal _ | I.Djmp _ | I.Codeword _ | I.Nop | I.Halt -> 0

(* Mark the register [insn] writes (the zero register excepted) ready
   at [complete]. *)
let set_dest_ready (ready : int array) insn complete =
  match insn with
  | I.Rop (_, _, _, rd) | I.Ropi (_, _, _, rd) | I.Lda (_, _, rd) | I.Lui (_, rd)
  | I.Jalr (_, rd) | I.Mem ((Op.Ldq | Op.Ldbu), _, _, rd) ->
    let i = Reg.index rd in
    if i <> 0 then ready.(i) <- complete
  | I.Jal _ -> ready.(Reg.index Reg.ra) <- complete
  | I.Mem ((Op.Stq | Op.Stb), _, _, _) | I.Br _ | I.Jmp _ | I.Jr _ | I.Dbr _
  | I.Djmp _ | I.Codeword _ | I.Nop | I.Halt ->
    ()

(* The single consumption path, over the machine's raw (allocation
   free) step record. [rsid < 0] means an application instruction;
   [branch < 0] no branch, else bit 0 = taken / bit 1 = dise_internal;
   [mem_addr = Raw.no_mem] no memory access. *)
let consume_raw t (r : Machine.Raw.t) =
  let cfg = t.cfg in
  let stats = t.stats in
  (* The redirect bubble set by a previous instruction is attributed
     (at most once) to the first instruction whose issue is bound by
     the delayed fetch — this one, if any. *)
  let pending = t.pending_redirect in
  t.pending_redirect <- redirect_none;
  t.dmiss <- false;
  (* ---- fetch ---- *)
  if t.fetch_count >= cfg.width then begin
    t.fetch_cycle <- t.fetch_cycle + 1;
    t.fetch_count <- 0
  end;
  if r.Machine.Raw.fetched_new_pc then begin
    stats.Stats.app_instrs <- stats.Stats.app_instrs + 1;
    (match t.profile with
    | None -> ()
    | Some p -> Profile.on_fetch p ~pc:r.Machine.Raw.pc);
    (match t.icache with
    | None -> ()
    | Some ic ->
      let line = Cache.line_of ic r.Machine.Raw.pc in
      if line <> t.last_line then begin
        t.last_line <- line;
        stats.Stats.icache_accesses <- stats.Stats.icache_accesses + 1;
        match Cache.access ic r.Machine.Raw.pc with
        | `Hit -> ()
        | `Miss ->
          stats.Stats.icache_misses <- stats.Stats.icache_misses + 1;
          let prefetched = line = t.last_l2_ifetch_line + 1 in
          t.last_l2_ifetch_line <- line;
          (* Instruction misses starve the whole core: the decoupling
             queue drains in a couple of cycles, so unlike data misses
             the latency is essentially exposed. *)
          serialize_stall t `Icache (l1_miss_penalty ~prefetched t r.Machine.Raw.pc)
      end);
    (* PT inspection happens on every application fetch. *)
    match t.controller with
    | None -> ()
    | Some c ->
      let stall = Controller.on_fetch c ~key:(I.key r.Machine.Raw.insn) in
      if stall > 0 then begin
        stats.Stats.dise_stall_cycles <- stats.Stats.dise_stall_cycles + stall;
        serialize_stall t `Ptrt stall
      end
  end
  else stats.Stats.rep_instrs <- stats.Stats.rep_instrs + 1;
  (* An expansion is charged once, at its first instruction. An
     interrupt resumption re-enters a sequence at offset > 0 with
     [expansion_start] set; that re-expansion is not a new dynamic
     expansion, so the offset guard excludes it — exactly the
     [Rep { offset = 0; _ } when expansion_start] match of the event
     path. *)
  if r.Machine.Raw.expansion_start && r.Machine.Raw.offset = 0 then begin
    let rsid = r.Machine.Raw.rsid and len = r.Machine.Raw.len in
    stats.Stats.expansions <- stats.Stats.expansions + 1;
    (match t.profile with
    | None -> ()
    | Some p -> Profile.on_expansion p ~rsid ~pc:r.Machine.Raw.pc);
    (match t.controller with
    | None -> ()
    | Some c ->
      stats.Stats.rt_accesses <- stats.Stats.rt_accesses + 1;
      let stall = Controller.on_expansion c ~rsid ~len in
      (match t.profile with
      | None -> ()
      | Some p -> Profile.on_rt p ~rsid ~miss:(stall > 0));
      if stall > 0 then begin
        stats.Stats.rt_misses <- stats.Stats.rt_misses + 1;
        stats.Stats.dise_stall_cycles <- stats.Stats.dise_stall_cycles + stall;
        serialize_stall t `Ptrt stall
      end);
    (match cfg.dise_decode with
    | Config.Stall_per_expansion ->
      stats.Stats.dise_stall_cycles <- stats.Stats.dise_stall_cycles + 1;
      serialize_stall t `Decode 1
    | Config.Free | Config.Extra_stage -> ())
  end;
  (match t.profile with
  | Some p when r.Machine.Raw.rsid >= 0 ->
    Profile.on_rep_instr p ~rsid:r.Machine.Raw.rsid
  | _ -> ());
  let fetch = t.fetch_cycle in
  t.fetch_count <- t.fetch_count + 1;
  (* ---- dispatch: ROB back-pressure ---- *)
  let rob_len = Array.length t.rob in
  let rob_bound =
    t.seq >= cfg.rob_size
    && t.rob.((t.seq - cfg.rob_size) mod rob_len) > fetch
  in
  let fetch =
    if rob_bound then t.rob.((t.seq - cfg.rob_size) mod rob_len) else fetch
  in
  t.fetch_cycle <- Int.max t.fetch_cycle fetch;
  (* ---- issue / execute ---- *)
  let src_ready = src_ready t.reg_ready r.Machine.Raw.insn in
  (* Issue bandwidth: at most [width] instructions may begin execution
     per cycle; the [width]-th previous issue bounds this one. *)
  let bandwidth_ready = t.issue_ring.(t.issue_head) + 1 in
  let fetch_dominant = fetch >= src_ready && fetch >= bandwidth_ready in
  let start = Int.max (Int.max fetch src_ready) bandwidth_ready in
  t.issue_ring.(t.issue_head) <- start;
  t.issue_head <- (t.issue_head + 1) mod Array.length t.issue_ring;
  let lat = latency_of t r.Machine.Raw.insn ~mem_addr:r.Machine.Raw.mem_addr in
  let complete = start + lat in
  set_dest_ready t.reg_ready r.Machine.Raw.insn complete;
  (* ---- control flow ---- *)
  (if r.Machine.Raw.branch >= 0 then begin
     let taken = r.Machine.Raw.branch land 1 <> 0 in
     let target = r.Machine.Raw.target in
     if r.Machine.Raw.branch land 2 <> 0 then begin
       (* A taken DISE branch is interpreted as a misprediction. *)
       if taken then begin
         stats.Stats.dise_branch_redirects <-
           stats.Stats.dise_branch_redirects + 1;
         redirect t ~cause:redirect_replacement complete
       end
     end
     else begin
       stats.Stats.branches <- stats.Stats.branches + 1;
       let predicted_normally =
         (* Only the trigger (last element of a replacement sequence)
            was seen by the fetch-side predictor; prediction of other
            replacement branches is suppressed. *)
         r.Machine.Raw.rsid < 0
         || r.Machine.Raw.offset = r.Machine.Raw.len - 1
       in
       if predicted_normally then begin
         let fallthrough = r.Machine.Raw.pc + 4 in
         let outcome =
           if is_call r.Machine.Raw.insn then
             Branch_pred.on_call t.bp ~pc:r.Machine.Raw.pc ~target ~fallthrough
               ~indirect:
                 (match r.Machine.Raw.insn with I.Jalr _ -> true | _ -> false)
           else
             match branch_kind r.Machine.Raw.insn with
             | Some kind ->
               Branch_pred.on_branch t.bp ~pc:r.Machine.Raw.pc ~kind ~taken
                 ~target ~fallthrough
             | None -> `Correct
         in
         match outcome with
         | `Mispredict ->
           stats.Stats.mispredicts <- stats.Stats.mispredicts + 1;
           redirect t ~cause:redirect_mispredict complete
         | `Correct -> if taken then break_group t 0
       end
       else if taken then begin
         (* Effectively predicted not-taken: a taken replacement branch
            redirects (this is the fault-isolation trap path). *)
         stats.Stats.rep_branch_redirects <- stats.Stats.rep_branch_redirects + 1;
         redirect t ~cause:redirect_replacement complete
       end
     end
   end);
  (* ---- retire ---- *)
  let in_order = if t.seq > 0 then t.rob.((t.seq - 1) mod rob_len) else 0 in
  let bandwidth =
    if t.seq >= cfg.width then t.rob.((t.seq - cfg.width) mod rob_len) + 1
    else 0
  in
  let retire = Int.max complete (Int.max in_order bandwidth) in
  (* ---- CPI attribution ----
     The retire-to-retire gap of this instruction is charged, in full,
     to the dominant constraint. Retire timestamps are monotonic
     (retire >= in_order = previous retire), so these gaps partition
     [0, last_retire] exactly; together with the serializing-stall
     charges above, every cycle of the final count lands in exactly
     one bucket. *)
  let delta = retire - t.last_retire in
  if delta > 0 then begin
    let cpi = stats.Stats.cpi in
    if complete < retire then
      (* Retire-bandwidth (or in-order) limited: the machine was
         retiring at full width — base. *)
      cpi.Cpi_stack.base <- cpi.Cpi_stack.base + delta
    else if t.dmiss then cpi.Cpi_stack.dcache <- cpi.Cpi_stack.dcache + delta
    else if pending <> redirect_none && fetch_dominant then begin
      if pending = redirect_mispredict then
        cpi.Cpi_stack.branch <- cpi.Cpi_stack.branch + delta
      else cpi.Cpi_stack.rep_redirect <- cpi.Cpi_stack.rep_redirect + delta
    end
    else if rob_bound && fetch_dominant then
      cpi.Cpi_stack.rob <- cpi.Cpi_stack.rob + delta
    else cpi.Cpi_stack.base <- cpi.Cpi_stack.base + delta
  end;
  (match t.trace with
  | None -> ()
  | Some tr ->
    let origin_args =
      if r.Machine.Raw.rsid < 0 then []
      else
        [ ("rsid", Json.Int r.Machine.Raw.rsid);
          ("offset", Json.Int r.Machine.Raw.offset);
          ("len", Json.Int r.Machine.Raw.len) ]
    in
    Trace.complete tr
      ~name:(I.to_string r.Machine.Raw.insn)
      ~cat:(if r.Machine.Raw.rsid < 0 then "app" else "rep")
      ~ts:fetch ~dur:(Int.max 1 (retire - fetch))
      ~tid:(1 + (t.seq mod t.trace_lanes))
      ~args:
        (("pc", Json.String (Printf.sprintf "0x%x" r.Machine.Raw.pc))
        :: ("seq", Json.Int t.seq)
        :: ("issue", Json.Int start)
        :: ("complete", Json.Int complete)
        :: ("retire", Json.Int retire)
        :: origin_args));
  t.rob.(t.seq mod rob_len) <- retire;
  t.last_retire <- retire;
  t.seq <- t.seq + 1;
  stats.Stats.retired <- stats.Stats.retired + 1

(* Event-typed entry point (interactive/debug drivers): translate into
   the scratch raw record and feed the single consumption path. *)
let consume t (ev : Event.t) =
  let r = t.raw_scratch in
  r.Machine.Raw.pc <- ev.Event.pc;
  r.Machine.Raw.insn <- ev.Event.insn;
  (match ev.Event.origin with
  | Event.App ->
    r.Machine.Raw.rsid <- -1;
    r.Machine.Raw.offset <- 0;
    r.Machine.Raw.len <- 0
  | Event.Rep { rsid; offset; len } ->
    r.Machine.Raw.rsid <- rsid;
    r.Machine.Raw.offset <- offset;
    r.Machine.Raw.len <- len);
  r.Machine.Raw.expansion_start <- ev.Event.expansion_start;
  r.Machine.Raw.fetched_new_pc <- ev.Event.fetched_new_pc;
  r.Machine.Raw.mem_addr <-
    (match ev.Event.mem_addr with Some a -> a | None -> Machine.Raw.no_mem);
  (match ev.Event.branch with
  | None -> r.Machine.Raw.branch <- -1
  | Some b ->
    r.Machine.Raw.branch <-
      (if b.Event.taken then 1 else 0) lor (if b.Event.dise_internal then 2 else 0);
    r.Machine.Raw.target <- b.Event.target);
  consume_raw t r

let finish t =
  if not t.finished then begin
    t.finished <- true;
    t.stats.Stats.cycles <- t.last_retire + t.serial_stalls;
    (match t.controller with
    | Some c ->
      let cs = Controller.stats c in
      t.stats.Stats.pt_misses <- cs.Controller.pt_misses
    | None -> ());
    Cpi_stack.check t.stats.Stats.cpi ~cycles:t.stats.Stats.cycles;
    match t.trace with None -> () | Some tr -> Trace.close tr
  end;
  t.stats

let run ?max_steps ?controller ?trace ?profile ?poll cfg machine =
  let p = create ?controller ?trace ?profile cfg in
  (* The raw stream allocates nothing per dynamic instruction (no
     Event record, no options); polling for deadlines moved into the
     machine loop at the same 2048-event cadence. *)
  ignore (Machine.run_raw ?max_steps ?poll machine (fun r -> consume_raw p r));
  let stats = finish p in
  stats.Stats.jit_compiles <- Machine.jit_compiles machine;
  stats.Stats.jit_hits <- Machine.jit_hits machine;
  stats.Stats.jit_invalidations <- Machine.jit_invalidations machine;
  stats
