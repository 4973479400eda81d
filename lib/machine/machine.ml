module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Image = Dise_isa.Program.Image

type expansion = {
  rsid : int;
  seq : I.t array;
}

type expander = pc:int -> I.t -> expansion option

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

module Event = struct
  type origin =
    | App
    | Rep of { rsid : int; offset : int; len : int }

  type branch = {
    taken : bool;
    target : int;
    dise_internal : bool;
  }

  type t = {
    pc : int;
    insn : I.t;
    origin : origin;
    expansion_start : bool;
    mem_addr : int option;
    branch : branch option;
    fetched_new_pc : bool;
  }
end

(* The allocation-free twin of {!Event.t}: one mutable record per
   machine, overwritten by every executed instruction. [run_raw] hands
   it to the sink instead of building an [Event.t] (two option cells
   plus a record per dynamic instruction); {!step} still materializes
   the event for callers that want a value. *)
module Raw = struct
  type t = {
    mutable pc : int;
    mutable insn : I.t;
    mutable rsid : int;  (* -1 = application instruction *)
    mutable offset : int;
    mutable len : int;
    mutable expansion_start : bool;
    mutable fetched_new_pc : bool;
    mutable mem_addr : int;  (* effective address, or [no_mem] *)
    mutable branch : int;  (* -1 = none; bit 0 = taken, bit 1 = dise_internal *)
    mutable target : int;
  }

  (* Sentinel for "no memory access"; addresses are 32-bit masked, so
     [min_int] can never collide. *)
  let no_mem = min_int

  let make () =
    {
      pc = 0;
      insn = I.Nop;
      rsid = -1;
      offset = 0;
      len = 0;
      expansion_start = false;
      fetched_new_pc = false;
      mem_addr = no_mem;
      branch = -1;
      target = 0;
    }
end

let no_mem = Raw.no_mem

(* --- superblock JIT ------------------------------------------------------ *)

(* Once an application PC has been dispatched [threshold] times, the
   static code reachable from it — with every expansion already
   performed — is flattened into a contiguous arena of parallel arrays
   (the superblock). Executing from the arena costs zero per-fetch
   matching, hashing, or allocation: the expander is consulted only at
   compile time. Conditional branches are recorded fall-through; a
   taken branch (or any application-level transfer) is a side exit
   back to the dispatcher. Soundness is generation-stamped: the engine
   bumps [generation] on any production-set swap or PT/RT write, and a
   mismatch observed at the next application-instruction boundary
   retires every superblock at once (see doc/jit.md). *)
type jit = {
  threshold : int;
  generation : int ref;  (* owned by the engine; [ref 0] when detached *)
  mutable cur_gen : int;
  jit_base : int;  (* image base, for the dense slot arithmetic *)
  (* Identity of the text the arena was compiled over. A state may be
     re-adopted by a later machine ([adopt_jit]) only when its image
     text is physically the same array — the arena stores absolute
     PCs, fall-throughs and decoded register indices, all functions of
     the text. *)
  text : I.t array;
  for_dense : bool;
  slot_block : int array;  (* dense: slot -> block id; -1 unknown, -2 never *)
  slot_count : int array;
  sparse_block : (int, int) Hashtbl.t;  (* sparse images: pc -> block id *)
  sparse_count : (int, int) Hashtbl.t;
  (* block table: block id -> arena [start, start+len) *)
  mutable blk_start : int array;
  mutable blk_len : int array;
  mutable n_blocks : int;
  (* the arena: one entry per post-expansion dynamic-instruction slot,
     as parallel arrays (no per-entry record, no per-fetch pointer
     chase beyond the instruction itself) *)
  mutable a_insn : I.t array;
  mutable a_pc : int array;  (* application PC of the (trigger) instruction *)
  mutable a_size : int array;  (* byte size of the application instruction *)
  mutable a_rsid : int array;  (* -1 = application instruction *)
  mutable a_off : int array;  (* DISEPC within the sequence *)
  mutable a_len : int array;  (* sequence length (0 for app entries) *)
  mutable a_base : int array;  (* arena index of the sequence's offset 0 *)
  mutable a_flags : int array;
  (* Micro-op form consumed by the event-free [run] loop: the
     instruction is decoded once at compile time into a packed int
     (opcode, flags, register indices) plus an immediate and the
     precomputed application fall-through PC, so the hot loop never
     inspects an [I.t] constructor or boxes a register. *)
  mutable a_uop : int array;
  mutable a_imm : int array;
  mutable a_fall : int array;  (* pc + size *)
  (* Exclusive prefix sums over the arena, one slot longer than the
     entry arrays: [c_app.(i)] counts [f_app] entries in [0, i),
     [c_est.(i)] counts [f_estart] entries. The run loop reconstructs
     its counters from differences of these instead of updating
     anything per instruction. *)
  mutable c_app : int array;
  mutable c_est : int array;
  mutable a_used : int;
  mutable compiles : int;
  mutable hits : int;
  mutable invalidations : int;
}

(* Arena entry flags. [f_app] marks an application-instruction
   boundary (a fresh fetch: I-cache + PT are touched); [f_estart] the
   first instruction of an expansion; [f_inseq] replacement-sequence
   membership (DISE-internal control is legal); [f_last] an entry
   whose [flow_next] completes the application instruction. *)
let f_app = 1
let f_estart = 2
let f_inseq = 4
let f_last = 8

let default_jit_threshold = 8
let jit_max_block_app = 4096

type t = {
  image : Image.t;
  insns : I.t array;  (* predecoded text: [Image.raw_insns image] *)
  dense : bool;       (* [Image.is_dense image]: size 4 everywhere *)
  mem : Memory.t;
  regs : Regfile.t;
  expander : expander;
  mutable pc : int;
  mutable disepc : int;
  mutable cur : expansion;
      (* the expansion being executed, or [no_expansion]: its empty
         sequence makes every "still inside it?" test
         ([disepc < Array.length cur.seq]) fail without an option *)
  mutable cur_size : int;  (* byte size of the current application insn *)
  mutable goto : int;
      (* target of the last [flow_app_goto]/[flow_dise_goto] that
         [exec_one] returned *)
  mutable halted : bool;
  mutable executed : int;
  mutable app_fetched : int;
  mutable expansions : int;
  (* Scratch output of the execution core, read once by the caller
     (event assembly or the raw sink): filling mutable fields instead
     of returning a value keeps the hot path allocation-free. *)
  raw : Raw.t;
  mutable jit : jit option;
  (* Step-mode superblock cursor: the next arena entry to execute is
     [jit_ix] while [jit_ix < jit_end]; equal fields mean "not inside
     a block". *)
  mutable jit_ix : int;
  mutable jit_end : int;
}

let no_expander ~pc:_ _ = None

let no_expansion = { rsid = -1; seq = [||] }

let default_sp = 0x07FFFF00

let create ?(expander = no_expander) ?(entry = "main") image =
  let pc =
    match Image.symbol image entry with
    | Some a -> a
    | None -> Image.base image
  in
  let regs = Regfile.create () in
  Regfile.set regs Reg.sp default_sp;
  {
    image;
    insns = Image.raw_insns image;
    dense = Image.is_dense image;
    mem = Memory.create ();
    regs;
    expander;
    pc;
    disepc = 0;
    cur = no_expansion;
    cur_size = 4;
    goto = 0;
    halted = false;
    executed = 0;
    app_fetched = 0;
    expansions = 0;
    raw = Raw.make ();
    jit = None;
    jit_ix = 0;
    jit_end = 0;
  }

let image t = t.image
let memory t = t.mem
let regs t = t.regs
let pc t = t.pc
let disepc t = t.disepc
let halted t = t.halted
let executed t = t.executed
let app_fetched t = t.app_fetched
let expansions t = t.expansions
let set_dise_reg t n v = Regfile.set t.regs (Reg.d n) v
let set_reg t r v = Regfile.set t.regs r v
let exit_code t = Regfile.get t.regs (Reg.r 2)
let raw t = t.raw

let enable_jit ?(threshold = default_jit_threshold) ?(generation = ref 0) t =
  let threshold = Int.max 1 threshold in
  let n = if t.dense then Array.length t.insns else 0 in
  t.jit <-
    Some
      {
        threshold;
        generation;
        cur_gen = !generation;
        jit_base = Image.base t.image;
        text = t.insns;
        for_dense = t.dense;
        slot_block = Array.make (Int.max n 1) (-1);
        slot_count = Array.make (Int.max n 1) 0;
        sparse_block = Hashtbl.create (if n = 0 then 1024 else 1);
        sparse_count = Hashtbl.create (if n = 0 then 1024 else 1);
        blk_start = Array.make 16 0;
        blk_len = Array.make 16 0;
        n_blocks = 0;
        a_insn = Array.make 4096 I.Nop;
        a_pc = Array.make 4096 0;
        a_size = Array.make 4096 0;
        a_rsid = Array.make 4096 0;
        a_off = Array.make 4096 0;
        a_len = Array.make 4096 0;
        a_base = Array.make 4096 0;
        a_uop = Array.make 4096 0;
        a_imm = Array.make 4096 0;
        a_fall = Array.make 4096 0;
        a_flags = Array.make 4096 0;
        c_app = Array.make 4097 0;
        c_est = Array.make 4097 0;
        a_used = 0;
        compiles = 0;
        hits = 0;
        invalidations = 0;
      }

type jit_state = jit

let jit_state t = t.jit

(* Reuse another machine's compiled traces. Sound only over the same
   image text (checked physically) — the generation stamp already
   covers production-set drift, and register/memory state lives in the
   adopting machine, not the arena. Compile counts, hit counts and hot
   slots carry over, which is the point: a fresh machine over a warmed
   state starts at steady state instead of re-earning every trace. *)
let adopt_jit t js =
  if js.text == t.insns && js.for_dense = t.dense
     && js.jit_base = Image.base t.image
  then begin
    t.jit <- Some js;
    t.jit_ix <- 0;
    t.jit_end <- 0;
    true
  end
  else false

let jit_enabled t = t.jit <> None
let jit_compiles t = match t.jit with None -> 0 | Some j -> j.compiles
let jit_hits t = match t.jit with None -> 0 | Some j -> j.hits

let jit_invalidations t =
  match t.jit with None -> 0 | Some j -> j.invalidations

(* Result of executing one instruction, as an int code so returning
   it allocates nothing; the two transfers leave their target in
   [t.goto]. *)
let flow_next = 0
let flow_app_goto = 1  (* application-level transfer to [t.goto] *)
let flow_dise_goto = 2  (* DISE-internal transfer to offset [t.goto] *)
let flow_stop = 3

let target_addr = function
  | I.Abs a -> a
  | I.Lab l -> fail "unresolved label %s at runtime" l

(* Execute [insn]; [in_seq] tells whether we are inside a replacement
   sequence (DISE-internal control is only legal there). The return
   address for calls is the application-level fall-through, i.e. the
   address after the (possibly expanded) trigger. Memory address and
   branch outcome are reported through [t.raw]. *)
let exec_one t insn ~in_seq =
  let regs = t.regs in
  let r = t.raw in
  r.Raw.mem_addr <- no_mem;
  r.Raw.branch <- -1;
  match insn with
  | I.Rop (op, a, b, c) ->
    Regfile.set regs c (Op.eval_rop op (Regfile.get regs a) (Regfile.get regs b));
    flow_next
  | I.Ropi (op, a, v, c) ->
    Regfile.set regs c (Op.eval_rop op (Regfile.get regs a) v);
    flow_next
  | I.Lda (base, off, rd) ->
    Regfile.set regs rd (Regfile.get regs base + off);
    flow_next
  | I.Lui (v, rd) ->
    Regfile.set regs rd (v lsl 16);
    flow_next
  | I.Mem (mop, base, off, data) ->
    let addr = Op.mask32 (Regfile.get regs base + off) in
    r.Raw.mem_addr <- addr;
    (match mop with
    | Op.Ldq -> Regfile.set regs data (Memory.read_s32 t.mem addr)
    | Op.Ldbu -> Regfile.set regs data (Memory.read_u8 t.mem addr)
    | Op.Stq -> Memory.write_u32 t.mem addr (Op.mask32 (Regfile.get regs data))
    | Op.Stb -> Memory.write_u8 t.mem addr (Regfile.get regs data));
    flow_next
  | I.Br (bop, r0, tgt) ->
    let target = target_addr tgt in
    let taken = Op.eval_bop bop (Regfile.get regs r0) in
    r.Raw.branch <- (if taken then 1 else 0);
    r.Raw.target <- target;
    if taken then begin
      t.goto <- target;
      flow_app_goto
    end
    else flow_next
  | I.Jmp tgt ->
    let target = target_addr tgt in
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    t.goto <- target;
    flow_app_goto
  | I.Jal tgt ->
    let target = target_addr tgt in
    Regfile.set regs Reg.ra (t.pc + t.cur_size);
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    t.goto <- target;
    flow_app_goto
  | I.Jr r0 ->
    let target = Op.mask32 (Regfile.get regs r0) in
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    t.goto <- target;
    flow_app_goto
  | I.Jalr (r0, rd) ->
    let target = Op.mask32 (Regfile.get regs r0) in
    Regfile.set regs rd (t.pc + t.cur_size);
    r.Raw.branch <- 1;
    r.Raw.target <- target;
    t.goto <- target;
    flow_app_goto
  | I.Dbr (bop, r0, off) ->
    if not in_seq then fail "DISE branch outside replacement sequence";
    let taken = Op.eval_bop bop (Regfile.get regs r0) in
    r.Raw.branch <- (if taken then 3 else 2);
    r.Raw.target <- off;
    if taken then begin
      t.goto <- off;
      flow_dise_goto
    end
    else flow_next
  | I.Djmp off ->
    if not in_seq then fail "DISE jump outside replacement sequence";
    r.Raw.branch <- 3;
    r.Raw.target <- off;
    t.goto <- off;
    flow_dise_goto
  | I.Codeword _ ->
    if in_seq then fail "codeword inside replacement sequence (recursion)"
    else fail "codeword at 0x%x matched no production" t.pc
  | I.Nop -> flow_next
  | I.Halt -> flow_stop

let advance_app t = t.pc <- t.pc + t.cur_size

let finish_sequence t =
  t.cur <- no_expansion;
  t.disepc <- 0;
  advance_app t

(* Execute the replacement instruction at the current DISEPC, leaving
   the step's description in [t.raw]. *)
let step_in_sequence_core t (e : expansion) ~expansion_start =
  let len = Array.length e.seq in
  let offset = t.disepc in
  let insn = e.seq.(offset) in
  let flow = exec_one t insn ~in_seq:true in
  let r = t.raw in
  r.Raw.pc <- t.pc;
  r.Raw.insn <- insn;
  r.Raw.rsid <- e.rsid;
  r.Raw.offset <- offset;
  r.Raw.len <- len;
  r.Raw.expansion_start <- expansion_start;
  r.Raw.fetched_new_pc <- expansion_start;
  if flow = flow_next then begin
    t.disepc <- offset + 1;
    if t.disepc >= len then finish_sequence t
  end
  else if flow = flow_app_goto then begin
    t.cur <- no_expansion;
    t.disepc <- 0;
    t.pc <- t.goto
  end
  else if flow = flow_dise_goto then begin
    let d = t.goto in
    if d < 0 || d > len then
      fail "DISE transfer to offset %d outside sequence of length %d" d len;
    t.disepc <- d;
    if d = len then finish_sequence t
  end
  else t.halted <- true;
  t.executed <- t.executed + 1

let interrupt t =
  let saved = (t.pc, t.disepc) in
  t.cur <- no_expansion;
  t.jit_ix <- 0;
  t.jit_end <- 0;
  saved

let resume t ~pc ~disepc =
  t.pc <- pc;
  t.disepc <- disepc;
  t.cur <- no_expansion;
  t.jit_ix <- 0;
  t.jit_end <- 0;
  t.halted <- false

(* One interpreted dynamic instruction: fills [t.raw], returns false
   once halted. *)
let step_core t =
  if t.halted then false
  else if t.disepc < Array.length t.cur.seq then begin
    step_in_sequence_core t t.cur ~expansion_start:false;
    true
  end
  else begin
    (* Application-level fetch: predecoded text, O(1) for dense
       images (no per-step hashtable probe). *)
    let idx = Image.find_index t.image t.pc in
    if idx < 0 then fail "PC 0x%x outside text" t.pc
    else begin
      let insn = Array.unsafe_get t.insns idx in
      t.cur_size <- (if t.dense then 4 else Image.size_of_index t.image idx);
      t.app_fetched <- t.app_fetched + 1;
      match t.expander ~pc:t.pc insn with
      | Some e ->
        if Array.length e.seq = 0 then
          fail "empty replacement sequence for 0x%x" t.pc;
        t.expansions <- t.expansions + 1;
        t.cur <- e;
        (* A restored DISEPC (interrupt resumption) skips the first
           instructions of the sequence; normally it is 0. *)
        if t.disepc >= Array.length e.seq then t.disepc <- 0;
        step_in_sequence_core t e ~expansion_start:true;
        true
      | None ->
        t.disepc <- 0;
        let flow = exec_one t insn ~in_seq:false in
        let r = t.raw in
        r.Raw.pc <- t.pc;
        r.Raw.insn <- insn;
        r.Raw.rsid <- -1;
        r.Raw.offset <- 0;
        r.Raw.len <- 0;
        r.Raw.expansion_start <- false;
        r.Raw.fetched_new_pc <- true;
        (* [in_seq:false] rules out a DISE-internal transfer *)
        if flow = flow_next then advance_app t
        else if flow = flow_app_goto then t.pc <- t.goto
        else t.halted <- true;
        t.executed <- t.executed + 1;
        true
    end
  end

(* --- superblock compilation and execution -------------------------------- *)

let ensure_capacity j n =
  let cap = Array.length j.a_pc in
  if j.a_used + n > cap then begin
    let ncap = Int.max (2 * cap) (j.a_used + n) in
    let grow a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 j.a_used;
      b
    in
    let insns = Array.make ncap I.Nop in
    Array.blit j.a_insn 0 insns 0 j.a_used;
    j.a_insn <- insns;
    j.a_pc <- grow j.a_pc;
    j.a_size <- grow j.a_size;
    j.a_rsid <- grow j.a_rsid;
    j.a_off <- grow j.a_off;
    j.a_len <- grow j.a_len;
    j.a_base <- grow j.a_base;
    j.a_flags <- grow j.a_flags;
    j.a_uop <- grow j.a_uop;
    j.a_imm <- grow j.a_imm;
    j.a_fall <- grow j.a_fall;
    let grow1 a =
      let b = Array.make (ncap + 1) 0 in
      Array.blit a 0 b 0 (j.a_used + 1);
      b
    in
    j.c_app <- grow1 j.c_app;
    j.c_est <- grow1 j.c_est
  end

exception Stop_compile

(* A trace ends at ANY application-level transfer, conditional
   branches included. Compiling through a conditional (recording it
   fall-through, superblock-style) looks attractive, but in branchy
   code it flattens long speculative tails past frequently-taken
   branches — compile time and arena space proportional to code that
   never executes, which made one-shot pipeline runs measurably
   SLOWER with the JIT than without. Ending at the branch makes every
   block an app-level basic block: each compiled entry executes every
   time the block is entered, so compile cost tracks the hot footprint
   and nothing else. Straight-line code is unaffected (blocks still
   run to [jit_max_block_app]); successor blocks chain through one
   dispatch probe. *)
let ends_straight_line = function
  | I.Jmp _ | I.Jal _ | I.Jr _ | I.Jalr _ | I.Halt | I.Codeword _ | I.Br _ ->
    true
  | _ -> false

(* Is [pc] already the head of a compiled block? Traces run through
   conditional branches (side exits), so without a stop rule every hot
   branch target would re-flatten the same shared tail — overlapping
   copies that cost quadratic arena space and compile time. Ending a
   walk at an existing head instead chains blocks through dispatch:
   one slot/hashtable probe per transition, no duplicated entries. *)
let compiled_head t j pc =
  if t.dense then begin
    let off = pc - j.jit_base in
    let idx = off lsr 2 in
    off >= 0
    && off land 3 = 0
    && idx < Array.length j.slot_block
    && Array.unsafe_get j.slot_block idx >= 0
  end
  else match Hashtbl.find_opt j.sparse_block pc with
    | Some b -> b >= 0
    | None -> false

(* --- micro-op encoding ---------------------------------------------------

   Arena entries carry a compile-time-decoded form of the instruction:

     a_uop  = code | flags << 6 | x << 12 | z << 18 | y << 24
     a_imm  = immediate / branch target / DISE offset
     a_fall = application fall-through PC (pc + size)

   where [x]/[y] are source register indices, [z] the destination
   index (0 = the hardwired-zero register: reads are correct because
   index 0 is never written; writes are dropped), and [code] selects
   an arm of the flat integer dispatch in [exec_uop_body]. Decoding
   happens once per compiled entry, so the hot loop performs zero
   per-fetch matching on [I.t] and never boxes a register. *)

let u_halt = 1
let u_cw_app = 2       (* unmatched codeword: fail like the interpreter *)
let u_cw_seq = 3
let u_dbr_out = 4      (* DISE control outside a replacement sequence *)
let u_djmp_out = 5
let u_rop = 8          (* .. u_rop + 13, reg-reg ALU *)
let u_ropi = 24        (* .. u_ropi + 13, reg-imm ALU *)
let u_lda = 38
let u_lui = 39
let u_ldq = 40
let u_ldbu = 41
let u_stq = 42
let u_stb = 43
let u_br = 44          (* .. u_br + 5, conditional application branch *)
let u_jmp = 50
let u_jal = 51
let u_jr = 52
let u_jalr = 53
let u_dbr = 54         (* .. u_dbr + 5, DISE-internal branch *)
let u_djmp = 60

let rop_code : Op.rop -> int = function
  | Op.Add -> 0 | Op.Sub -> 1 | Op.Mul -> 2
  | Op.And_ -> 3 | Op.Or_ -> 4 | Op.Xor -> 5
  | Op.Sll -> 6 | Op.Srl -> 7 | Op.Sra -> 8
  | Op.Slt -> 9 | Op.Sltu -> 10
  | Op.Cmpeq -> 11 | Op.Cmplt -> 12 | Op.Cmple -> 13

let bop_code : Op.bop -> int = function
  | Op.Beq -> 0 | Op.Bne -> 1 | Op.Blt -> 2
  | Op.Bge -> 3 | Op.Ble -> 4 | Op.Bgt -> 5

let ra_index = Reg.index Reg.ra

(* Decode one instruction. Raises (via {!target_addr}) on an
   unresolved label, exactly where the interpreter would — the caller
   turns that into [Stop_compile] so the block ends before the
   instruction and the interpreter surfaces the error on reaching
   it. *)
let uop_of_insn insn ~flags =
  let f = flags lsl 6 in
  let x r = Reg.index r lsl 12 in
  let z r = Reg.index r lsl 18 in
  let y r = Reg.index r lsl 24 in
  let inseq = flags land f_inseq <> 0 in
  match insn with
  | I.Nop -> (f, 0)
  | I.Halt -> (u_halt lor f, 0)
  | I.Rop (op, a, b, c) ->
    ((u_rop + rop_code op) lor f lor x a lor y b lor z c, 0)
  | I.Ropi (op, a, v, c) -> ((u_ropi + rop_code op) lor f lor x a lor z c, v)
  | I.Lda (base, off, rd) -> (u_lda lor f lor x base lor z rd, off)
  | I.Lui (v, rd) -> (u_lui lor f lor z rd, v)
  | I.Mem (mop, base, off, data) ->
    let code =
      match mop with
      | Op.Ldq -> u_ldq
      | Op.Ldbu -> u_ldbu
      | Op.Stq -> u_stq
      | Op.Stb -> u_stb
    in
    (code lor f lor x base lor z data, off)
  | I.Br (bop, r0, tgt) ->
    ((u_br + bop_code bop) lor f lor x r0, target_addr tgt)
  | I.Jmp tgt -> (u_jmp lor f, target_addr tgt)
  | I.Jal tgt -> (u_jal lor f, target_addr tgt)
  | I.Jr r0 -> (u_jr lor f lor x r0, 0)
  | I.Jalr (r0, rd) -> (u_jalr lor f lor x r0 lor z rd, 0)
  | I.Dbr (bop, r0, d) ->
    if inseq then ((u_dbr + bop_code bop) lor f lor x r0, d)
    else (u_dbr_out lor f, 0)
  | I.Djmp d -> if inseq then (u_djmp lor f, d) else (u_djmp_out lor f, 0)
  | I.Codeword _ -> ((if inseq then u_cw_seq else u_cw_app) lor f, 0)

(* Flatten the static code reachable by fall-through from [start_pc]
   into the arena; returns the new block id, or -1 when nothing could
   be compiled (first instruction off-image, erroring, or expanding to
   an empty sequence — the interpreter raises the identical error when
   it gets there). The walk stops before any instruction whose
   expansion cannot be computed, so compilation never raises an error
   the interpreter would only reach later (or not at all). The
   expander must be pure and idempotent for the PCs walked — true of
   the memoizing engine; the machine never compiles through a mutated
   fuzz expander because those sides never enable the JIT. *)
let compile_block t j start_pc =
  let first = j.a_used in
  let append insn ~pc ~size ~rsid ~off ~len ~base ~flags ~uop ~imm =
    ensure_capacity j 1;
    let i = j.a_used in
    j.a_insn.(i) <- insn;
    j.a_pc.(i) <- pc;
    j.a_size.(i) <- size;
    j.a_rsid.(i) <- rsid;
    j.a_off.(i) <- off;
    j.a_len.(i) <- len;
    j.a_base.(i) <- base;
    j.a_flags.(i) <- flags;
    j.a_uop.(i) <- uop;
    j.a_imm.(i) <- imm;
    j.a_fall.(i) <- pc + size;
    j.c_app.(i + 1) <- j.c_app.(i) + (flags land f_app);
    j.c_est.(i + 1) <- j.c_est.(i) + ((flags land f_estart) lsr 1);
    j.a_used <- i + 1
  in
  let pc = ref start_pc in
  let napp = ref 0 in
  (try
     while !napp < jit_max_block_app do
       let idx = Image.find_index t.image !pc in
       if idx < 0 then raise Stop_compile;
       let insn = Array.unsafe_get t.insns idx in
       let size = if t.dense then 4 else Image.size_of_index t.image idx in
       (match t.expander ~pc:!pc insn with
       | exception _ -> raise Stop_compile
       | None ->
         (* An unmatched codeword is included: executing it raises
            exactly the error the interpreter would. *)
         let flags = f_app lor f_last in
         let uop, imm =
           match uop_of_insn insn ~flags with
           | u -> u
           | exception Runtime_error _ -> raise Stop_compile
         in
         append insn ~pc:!pc ~size ~rsid:(-1) ~off:0 ~len:0 ~base:j.a_used
           ~flags ~uop ~imm;
         incr napp;
         if ends_straight_line insn then raise Stop_compile
       | Some e ->
         let len = Array.length e.seq in
         if len = 0 then raise Stop_compile;
         (* Decode the whole sequence before appending anything, so a
            mid-sequence decode failure (unresolved label) cannot
            leave a truncated expansion in the arena. *)
         let flags_of off =
           f_inseq
           lor (if off = 0 then f_app lor f_estart else 0)
           lor (if off = len - 1 then f_last else 0)
         in
         let uops =
           match
             Array.init len (fun off ->
                 uop_of_insn e.seq.(off) ~flags:(flags_of off))
           with
           | u -> u
           | exception Runtime_error _ -> raise Stop_compile
         in
         let base = j.a_used in
         for off = 0 to len - 1 do
           let uop, imm = uops.(off) in
           append e.seq.(off) ~pc:!pc ~size ~rsid:e.rsid ~off ~len ~base
             ~flags:(flags_of off) ~uop ~imm
         done;
         incr napp;
         if ends_straight_line e.seq.(len - 1) then raise Stop_compile);
       pc := !pc + size;
       if compiled_head t j !pc then raise Stop_compile
     done
   with Stop_compile -> ());
  let n = j.a_used - first in
  if n = 0 then -1
  else begin
    if j.n_blocks >= Array.length j.blk_start then begin
      let ncap = 2 * Array.length j.blk_start in
      let grow a =
        let b = Array.make ncap 0 in
        Array.blit a 0 b 0 j.n_blocks;
        b
      in
      j.blk_start <- grow j.blk_start;
      j.blk_len <- grow j.blk_len
    end;
    let b = j.n_blocks in
    j.blk_start.(b) <- first;
    j.blk_len.(b) <- n;
    j.n_blocks <- b + 1;
    j.compiles <- j.compiles + 1;
    b
  end

(* Retire every superblock: the production set (or a PT/RT entry)
   changed, so all flattened expansions are suspect. Counts and block
   indices restart cold; hot traces re-earn compilation under the new
   generation. *)
let jit_reset t j =
  j.invalidations <- j.invalidations + j.n_blocks;
  j.n_blocks <- 0;
  j.a_used <- 0;
  Array.fill j.slot_block 0 (Array.length j.slot_block) (-1);
  Array.fill j.slot_count 0 (Array.length j.slot_count) 0;
  Hashtbl.reset j.sparse_block;
  Hashtbl.reset j.sparse_count;
  j.cur_gen <- !(j.generation);
  t.jit_ix <- 0;
  t.jit_end <- 0

(* Block lookup at an application-instruction boundary (cur drained,
   DISEPC 0). Returns the block id to execute, or -1 to interpret this
   fetch. Compiles once the slot's dispatch count reaches the
   threshold. [hits] counts dispatches served by an already-compiled
   block. *)
let jit_dispatch t j =
  if !(j.generation) <> j.cur_gen then jit_reset t j;
  let pc = t.pc in
  if t.dense then begin
    let off = pc - j.jit_base in
    let idx = off lsr 2 in
    if off >= 0 && off land 3 = 0 && idx < Array.length j.slot_block then begin
      let b = Array.unsafe_get j.slot_block idx in
      if b >= 0 then begin
        j.hits <- j.hits + 1;
        b
      end
      else if b = -2 then -1
      else begin
        let c = Array.unsafe_get j.slot_count idx + 1 in
        Array.unsafe_set j.slot_count idx c;
        if c < j.threshold then -1
        else begin
          let b = compile_block t j pc in
          j.slot_block.(idx) <- (if b < 0 then -2 else b);
          b
        end
      end
    end
    else -1
  end
  else
    match Hashtbl.find_opt j.sparse_block pc with
    | Some b when b >= 0 ->
      j.hits <- j.hits + 1;
      b
    | Some _ -> -1
    | None ->
      let c =
        (match Hashtbl.find_opt j.sparse_count pc with
        | Some c -> c
        | None -> 0)
        + 1
      in
      Hashtbl.replace j.sparse_count pc c;
      if c < j.threshold then -1
      else begin
        let b = compile_block t j pc in
        Hashtbl.replace j.sparse_block pc (if b < 0 then -2 else b);
        b
      end

(* Execute arena entry [i]; returns the next arena index, or -1 when
   the block was exited (machine state — pc, disepc, cur — is left at
   a consistent boundary either way). *)
let exec_entry t j i =
  let insn = Array.unsafe_get j.a_insn i in
  let flags = Array.unsafe_get j.a_flags i in
  let pc = Array.unsafe_get j.a_pc i in
  t.pc <- pc;
  t.cur_size <- Array.unsafe_get j.a_size i;
  if flags land f_app <> 0 then begin
    t.app_fetched <- t.app_fetched + 1;
    if flags land f_estart <> 0 then t.expansions <- t.expansions + 1
  end;
  let flow = exec_one t insn ~in_seq:(flags land f_inseq <> 0) in
  let r = t.raw in
  r.Raw.pc <- pc;
  r.Raw.insn <- insn;
  r.Raw.rsid <- Array.unsafe_get j.a_rsid i;
  r.Raw.offset <- Array.unsafe_get j.a_off i;
  r.Raw.len <- Array.unsafe_get j.a_len i;
  r.Raw.expansion_start <- flags land f_estart <> 0;
  r.Raw.fetched_new_pc <- flags land f_app <> 0;
  let next =
    if flow = flow_next then begin
      if flags land f_last <> 0 then begin
        t.disepc <- 0;
        t.pc <- pc + t.cur_size
      end
      else t.disepc <- Array.unsafe_get j.a_off i + 1;
      i + 1
    end
    else if flow = flow_app_goto then begin
      t.cur <- no_expansion;
      t.disepc <- 0;
      t.pc <- t.goto;
      -1
    end
    else if flow = flow_dise_goto then begin
      let d = t.goto in
      let len = Array.unsafe_get j.a_len i in
      if d < 0 || d > len then
        fail "DISE transfer to offset %d outside sequence of length %d" d len;
      if d = len then begin
        t.disepc <- 0;
        t.pc <- pc + t.cur_size;
        Array.unsafe_get j.a_base i + len
      end
      else begin
        t.disepc <- d;
        Array.unsafe_get j.a_base i + d
      end
    end
    else begin
      t.halted <- true;
      -1
    end
  in
  t.executed <- t.executed + 1;
  next

(* [exec_entry]'s event-free twin for the full-speed [run] path:
   identical machine-state transitions, counters, and failure
   messages, but no [t.raw] bookkeeping — [run] discards the stream,
   and at ~15 ns/instruction the ten raw stores are a measurable
   fraction of the budget. Also folds in the generation side-exit
   (checked at application boundaries, where state is consistent).
   Mid-sequence [disepc] maintenance is elided: the fast path never
   leaves a block mid-sequence except through application and
   DISE-internal transfers, both of which write [disepc] themselves, so the
   running value is unobservable. Must mirror [exec_one]/[exec_entry];
   test_machine's run/step equivalence tests pin the two paths
   together. *)
(* One dynamic instruction in step mode, through the superblock cursor
   when one is active. The event/raw stream, counters, and failure
   behaviour are identical to {!step_core}'s — the differential fuzzer
   runs this as its fourth lockstep backend to prove it. *)
let rec jit_step_core t j =
  if t.halted then false
  else if t.jit_ix < t.jit_end then begin
    let i = t.jit_ix in
    if
      Array.unsafe_get j.a_flags i land f_app <> 0
      && !(j.generation) <> j.cur_gen
    then begin
      (* Mid-block invalidation, observed at an application boundary:
         abandon the block (state is already consistent) and fall back
         to dispatch, which retires everything. *)
      t.jit_ix <- 0;
      t.jit_end <- 0;
      jit_step_core t j
    end
    else begin
      let next = exec_entry t j i in
      if next < 0 || next >= t.jit_end then begin
        t.jit_ix <- 0;
        t.jit_end <- 0
      end
      else t.jit_ix <- next;
      true
    end
  end
  else if t.disepc < Array.length t.cur.seq then begin
    step_in_sequence_core t t.cur ~expansion_start:false;
    true
  end
  else if t.disepc <> 0 then
    (* Interrupt resumption mid-sequence: the interpreter path
       re-expands and skips the first [disepc] instructions. *)
    step_core t
  else begin
    let b = jit_dispatch t j in
    if b < 0 then step_core t
    else begin
      let s = Array.unsafe_get j.blk_start b in
      t.jit_ix <- s;
      t.jit_end <- s + Array.unsafe_get j.blk_len b;
      jit_step_core t j
    end
  end

let step_any t =
  match t.jit with None -> step_core t | Some j -> jit_step_core t j

let event_of_raw t =
  let r = t.raw in
  {
    Event.pc = r.Raw.pc;
    insn = r.Raw.insn;
    origin =
      (if r.Raw.rsid < 0 then Event.App
       else Event.Rep { rsid = r.Raw.rsid; offset = r.Raw.offset; len = r.Raw.len });
    expansion_start = r.Raw.expansion_start;
    mem_addr = (if r.Raw.mem_addr = no_mem then None else Some r.Raw.mem_addr);
    branch =
      (if r.Raw.branch < 0 then None
       else
         Some
           {
             Event.taken = r.Raw.branch land 1 <> 0;
             target = r.Raw.target;
             dise_internal = r.Raw.branch land 2 <> 0;
           });
    fetched_new_pc = r.Raw.fetched_new_pc;
  }

let step t = if step_any t then Some (event_of_raw t) else None

let default_max_steps = 100_000_000

let run_events ?(max_steps = default_max_steps) t f =
  (* The halted check lets a program whose final instruction is exactly
     the [max_steps]-th complete normally; a still-running machine
     stops having executed exactly [max_steps] instructions, never
     [max_steps + 1]. *)
  let rec go () =
    if (not t.halted) && t.executed >= max_steps then
      fail "exceeded %d steps without halting" max_steps;
    if step_any t then begin
      f (event_of_raw t);
      go ()
    end
    else t.executed
  in
  go ()

let run_raw ?(max_steps = default_max_steps) ?poll t sink =
  match poll with
  | None ->
    let rec go () =
      if (not t.halted) && t.executed >= max_steps then
        fail "exceeded %d steps without halting" max_steps;
      if step_any t then begin
        sink t.raw;
        go ()
      end
      else t.executed
    in
    go ()
  | Some poll ->
    (* Amortized cooperative cancellation point: one poll every 2048
       events keeps the overhead below the noise floor while bounding
       how long a deadline overrun can go unnoticed. *)
    let k = ref 0 in
    let rec go () =
      if (not t.halted) && t.executed >= max_steps then
        fail "exceeded %d steps without halting" max_steps;
      if step_any t then begin
        sink t.raw;
        incr k;
        if !k land 2047 = 0 then poll ();
        go ()
      end
      else t.executed
    in
    go ()

(* Event-free full-speed run: whole superblocks execute in a local
   tail-recursive loop — no step dispatch, no cursor maintenance, no
   [t.raw] bookkeeping, the arena arrays and the per-block counters
   held in registers. This is the [machine.run] hot path the
   microbenchmarks measure. The executed/app-fetched counts live in
   the loop arguments and are flushed at every exit — including
   before any raise, so failure paths observe the same counter values
   as the interpreter. No per-entry generation check is needed here:
   nothing runs between [jit_dispatch]'s check and the block's end
   that could bump the generation (unlike step mode, where the caller
   regains control between instructions). *)
(* Operand accessors for the packed micro-op form: x (src1) at bit
   12, y (src2) at 24, z (dest) at 18. Tiny on purpose — the machine
   library raises -inline so these fold into the match arms below. *)
let rd_x regs uop = Regfile.unsafe_get_idx regs ((uop lsr 12) land 63)
let rd_y regs uop = Regfile.unsafe_get_idx regs ((uop lsr 24) land 63)
let rd_z regs uop = Regfile.unsafe_get_idx regs ((uop lsr 18) land 63)

let wr regs uop v =
  let z = (uop lsr 18) land 63 in
  if z <> 0 then Regfile.unsafe_set_idx regs z v

let run_block t j b ~max_steps =
  let a_uop = j.a_uop
  and a_imm = j.a_imm
  and a_fall = j.a_fall
  and a_pc = j.a_pc
  and c_app = j.c_app
  and c_est = j.c_est in
  let regs = t.regs
  and mem = t.mem in
  let start = Array.unsafe_get j.blk_start b in
  let stop = start + Array.unsafe_get j.blk_len b in
  (* Counters are reconstructed from the compile-time prefix sums
     rather than updated per instruction: with [bk]/[ba]/[be] the
     loop-carried sync bases, the not-yet-flushed counts on arrival
     at entry [i] are [i - bk] executed, [c_app.(i) - ba] fetches and
     [c_est.(i) - be] expansions. The bases only move at the rare
     discontinuities — DISE-internal transfers, and memory operations,
     which flush *before* calling [Memory] so a fault unwinds with
     exactly the interpreter's counter values (fetch counted,
     completion not). [flush_pre]/[flush_post] differ in whether the
     current entry counts as executed; both count its fetch, because
     the interpreter bumps [app_fetched]/[expansions] before executing
     and every flush site sits at or after that point.

     There is no per-entry [max_steps] check: [run_jit] only enters a
     block when the whole straight-line path fits in the remaining
     step budget, and [goto] — the only way to revisit an entry —
     bails back to the interpreter when it can no longer prove that
     (the interpreter then re-expands at the published mid-sequence
     boundary and checks every step). Likewise there is no per-entry
     [t.pc] maintenance: exits publish the boundary themselves, and
     the arms that can raise ([Memory] faults, unmatched codewords)
     first set [t.pc] to the application PC the interpreter would
     report.

     The ALU operations are spelled out one arm per opcode, a few
     inline instructions each, mirroring [Op.eval_rop] under the
     invariant that register values are signed-32 canonical; the
     run/step equivalence tests and the fuzzer's four-way lockstep
     oracle pin all of this against the interpreter. Everything here
     self-tail-calls [go]: a shared continuation helper would put a
     full call — prologue, stack check, poll, argument spills — on
     the per-instruction path. *)
  let flush_pre i bk ba be =
    t.executed <- t.executed + (i - bk);
    t.app_fetched <- t.app_fetched + (Array.unsafe_get c_app (i + 1) - ba);
    t.expansions <- t.expansions + (Array.unsafe_get c_est (i + 1) - be)
  in
  let flush_post i bk ba be =
    t.executed <- t.executed + (i - bk) + 1;
    t.app_fetched <- t.app_fetched + (Array.unsafe_get c_app (i + 1) - ba);
    t.expansions <- t.expansions + (Array.unsafe_get c_est (i + 1) - be)
  in
  let rec go i bk ba be =
    if i >= stop then begin
      (* fell off the block's end; [i - 1] completed an application
         instruction (blocks close on whole instructions), so its
         fall-through is the next boundary *)
      t.disepc <- 0;
      t.pc <- Array.unsafe_get a_fall (i - 1);
      t.executed <- t.executed + (i - bk);
      t.app_fetched <- t.app_fetched + (Array.unsafe_get c_app i - ba);
      t.expansions <- t.expansions + (Array.unsafe_get c_est i - be)
    end
    else begin
      let uop = Array.unsafe_get a_uop i in
      match uop land 63 with
      | 0 -> go (i + 1) bk ba be (* nop *)
      | 1 ->
        t.halted <- true;
        t.disepc <- 0;
        t.pc <- Array.unsafe_get a_pc i;
        flush_post i bk ba be
      | 2 ->
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        fail "codeword at 0x%x matched no production" (Array.unsafe_get a_pc i)
      | 3 ->
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        fail "codeword inside replacement sequence (recursion)"
      | 4 ->
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        fail "DISE branch outside replacement sequence"
      | 5 ->
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        fail "DISE jump outside replacement sequence"
      (* rop: register-register ALU; then ropi, lda, lui *)
      | 8 -> wr regs uop (Op.signed32 (rd_x regs uop + (rd_y regs uop))); go (i + 1) bk ba be
      | 9 -> wr regs uop (Op.signed32 (rd_x regs uop - (rd_y regs uop))); go (i + 1) bk ba be
      | 10 -> wr regs uop (Op.signed32 (rd_x regs uop * (rd_y regs uop))); go (i + 1) bk ba be
      | 11 -> wr regs uop (rd_x regs uop land (rd_y regs uop)); go (i + 1) bk ba be
      | 12 -> wr regs uop (rd_x regs uop lor (rd_y regs uop)); go (i + 1) bk ba be
      | 13 -> wr regs uop (rd_x regs uop lxor (rd_y regs uop)); go (i + 1) bk ba be
      | 14 -> wr regs uop (Op.signed32 (Op.mask32 (rd_x regs uop) lsl ((rd_y regs uop) land 31))); go (i + 1) bk ba be
      | 15 -> wr regs uop (Op.signed32 (Op.mask32 (rd_x regs uop) lsr ((rd_y regs uop) land 31))); go (i + 1) bk ba be
      | 16 -> wr regs uop (rd_x regs uop asr ((rd_y regs uop) land 31)); go (i + 1) bk ba be
      | 17 -> wr regs uop (if rd_x regs uop < (rd_y regs uop) then 1 else 0); go (i + 1) bk ba be
      | 18 -> wr regs uop (if Op.mask32 (rd_x regs uop) < Op.mask32 ((rd_y regs uop)) then 1 else 0); go (i + 1) bk ba be
      | 19 -> wr regs uop (if rd_x regs uop = (rd_y regs uop) then 1 else 0); go (i + 1) bk ba be
      | 20 -> wr regs uop (if rd_x regs uop < (rd_y regs uop) then 1 else 0); go (i + 1) bk ba be
      | 21 -> wr regs uop (if rd_x regs uop <= (rd_y regs uop) then 1 else 0); go (i + 1) bk ba be
      | 24 -> wr regs uop (Op.signed32 (rd_x regs uop + (Array.unsafe_get a_imm i))); go (i + 1) bk ba be
      | 25 -> wr regs uop (Op.signed32 (rd_x regs uop - (Array.unsafe_get a_imm i))); go (i + 1) bk ba be
      | 26 -> wr regs uop (Op.signed32 (rd_x regs uop * (Array.unsafe_get a_imm i))); go (i + 1) bk ba be
      | 27 -> wr regs uop (rd_x regs uop land (Array.unsafe_get a_imm i)); go (i + 1) bk ba be
      | 28 -> wr regs uop (rd_x regs uop lor (Array.unsafe_get a_imm i)); go (i + 1) bk ba be
      | 29 -> wr regs uop (rd_x regs uop lxor (Array.unsafe_get a_imm i)); go (i + 1) bk ba be
      | 30 -> wr regs uop (Op.signed32 (Op.mask32 (rd_x regs uop) lsl ((Array.unsafe_get a_imm i) land 31))); go (i + 1) bk ba be
      | 31 -> wr regs uop (Op.signed32 (Op.mask32 (rd_x regs uop) lsr ((Array.unsafe_get a_imm i) land 31))); go (i + 1) bk ba be
      | 32 -> wr regs uop (rd_x regs uop asr ((Array.unsafe_get a_imm i) land 31)); go (i + 1) bk ba be
      | 33 -> wr regs uop (if rd_x regs uop < (Array.unsafe_get a_imm i) then 1 else 0); go (i + 1) bk ba be
      | 34 -> wr regs uop (if Op.mask32 (rd_x regs uop) < Op.mask32 ((Array.unsafe_get a_imm i)) then 1 else 0); go (i + 1) bk ba be
      | 35 -> wr regs uop (if rd_x regs uop = (Array.unsafe_get a_imm i) then 1 else 0); go (i + 1) bk ba be
      | 36 -> wr regs uop (if rd_x regs uop < (Array.unsafe_get a_imm i) then 1 else 0); go (i + 1) bk ba be
      | 37 -> wr regs uop (if rd_x regs uop <= (Array.unsafe_get a_imm i) then 1 else 0); go (i + 1) bk ba be
      | 38 -> wr regs uop (Op.signed32 (rd_x regs uop + Array.unsafe_get a_imm i) (* lda *)); go (i + 1) bk ba be
      | 39 -> wr regs uop (Op.signed32 (Array.unsafe_get a_imm i lsl 16) (* lui *)); go (i + 1) bk ba be
      | 40 ->
        let a = rd_x regs uop in
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        wr regs uop (Memory.read_s32 mem (Op.mask32 (a + Array.unsafe_get a_imm i)));
        go (i + 1) i (Array.unsafe_get c_app (i + 1)) (Array.unsafe_get c_est (i + 1))
      | 41 ->
        let a = rd_x regs uop in
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        wr regs uop (Memory.read_u8 mem (Op.mask32 (a + Array.unsafe_get a_imm i)));
        go (i + 1) i (Array.unsafe_get c_app (i + 1)) (Array.unsafe_get c_est (i + 1))
      | 42 ->
        let a = rd_x regs uop in
        let v = Op.mask32 (rd_z regs uop) in
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        Memory.write_u32 mem (Op.mask32 (a + Array.unsafe_get a_imm i)) v;
        go (i + 1) i (Array.unsafe_get c_app (i + 1)) (Array.unsafe_get c_est (i + 1))
      | 43 ->
        let a = rd_x regs uop in
        let v = rd_z regs uop in
        t.pc <- Array.unsafe_get a_pc i;
        flush_pre i bk ba be;
        Memory.write_u8 mem (Op.mask32 (a + Array.unsafe_get a_imm i)) v;
        go (i + 1) i (Array.unsafe_get c_app (i + 1)) (Array.unsafe_get c_est (i + 1))
      (* conditional application branch; taken = side exit *)
      | 44 ->
        if rd_x regs uop = 0 then begin
          t.disepc <- 0;
          t.pc <- Array.unsafe_get a_imm i;
          flush_post i bk ba be
        end
        else go (i + 1) bk ba be
      | 45 ->
        if rd_x regs uop <> 0 then begin
          t.disepc <- 0;
          t.pc <- Array.unsafe_get a_imm i;
          flush_post i bk ba be
        end
        else go (i + 1) bk ba be
      | 46 ->
        if rd_x regs uop < 0 then begin
          t.disepc <- 0;
          t.pc <- Array.unsafe_get a_imm i;
          flush_post i bk ba be
        end
        else go (i + 1) bk ba be
      | 47 ->
        if rd_x regs uop >= 0 then begin
          t.disepc <- 0;
          t.pc <- Array.unsafe_get a_imm i;
          flush_post i bk ba be
        end
        else go (i + 1) bk ba be
      | 48 ->
        if rd_x regs uop <= 0 then begin
          t.disepc <- 0;
          t.pc <- Array.unsafe_get a_imm i;
          flush_post i bk ba be
        end
        else go (i + 1) bk ba be
      | 49 ->
        if rd_x regs uop > 0 then begin
          t.disepc <- 0;
          t.pc <- Array.unsafe_get a_imm i;
          flush_post i bk ba be
        end
        else go (i + 1) bk ba be
      | 50 ->
        t.disepc <- 0;
        t.pc <- Array.unsafe_get a_imm i;
        flush_post i bk ba be
      | 51 ->
        (* jal: return address is the application fall-through *)
        Regfile.unsafe_set_idx regs ra_index
          (Op.signed32 (Array.unsafe_get a_fall i));
        t.disepc <- 0;
        t.pc <- Array.unsafe_get a_imm i;
        flush_post i bk ba be
      | 52 ->
        t.disepc <- 0;
        t.pc <- Op.mask32 (rd_x regs uop);
        flush_post i bk ba be
      | 53 ->
        (* jalr: target read before the link write, like the interpreter *)
        let target = Op.mask32 (rd_x regs uop) in
        wr regs uop (Op.signed32 (Array.unsafe_get a_fall i));
        t.disepc <- 0;
        t.pc <- target;
        flush_post i bk ba be
      (* DISE-internal conditional branch, then djmp *)
      | 54 -> if rd_x regs uop = 0 then goto i (Array.unsafe_get a_imm i) bk ba be else go (i + 1) bk ba be
      | 55 -> if rd_x regs uop <> 0 then goto i (Array.unsafe_get a_imm i) bk ba be else go (i + 1) bk ba be
      | 56 -> if rd_x regs uop < 0 then goto i (Array.unsafe_get a_imm i) bk ba be else go (i + 1) bk ba be
      | 57 -> if rd_x regs uop >= 0 then goto i (Array.unsafe_get a_imm i) bk ba be else go (i + 1) bk ba be
      | 58 -> if rd_x regs uop <= 0 then goto i (Array.unsafe_get a_imm i) bk ba be else go (i + 1) bk ba be
      | 59 -> if rd_x regs uop > 0 then goto i (Array.unsafe_get a_imm i) bk ba be else go (i + 1) bk ba be
      | _ -> goto i (Array.unsafe_get a_imm i) bk ba be (* djmp *)
    end
  (* DISE-internal transfer within the flattened sequence; [d = len]
     falls out of the expansion. *)
  and goto i d bk ba be =
    let len = Array.unsafe_get j.a_len i in
    if d < 0 || d > len then begin
      t.pc <- Array.unsafe_get a_pc i;
      flush_pre i bk ba be;
      fail "DISE transfer to offset %d outside sequence of length %d" d len
    end;
    if d = len then begin
      let tgt = Array.unsafe_get j.a_base i + len in
      t.disepc <- 0;
      t.pc <- Array.unsafe_get a_fall i;
      go tgt (bk + (tgt - i - 1))
        (ba + (Array.unsafe_get c_app tgt - Array.unsafe_get c_app (i + 1)))
        (be + (Array.unsafe_get c_est tgt - Array.unsafe_get c_est (i + 1)))
    end
    else begin
      let tgt = Array.unsafe_get j.a_base i + d in
      t.disepc <- d;
      if
        tgt <= i
        && t.executed + (i - bk) + 1 + (stop - tgt) > max_steps
      then begin
        (* a backward transfer this close to the step ceiling could
           loop past it unchecked: publish the mid-sequence boundary
           and hand the rest to the interpreter, which re-expands and
           checks every step *)
        t.pc <- Array.unsafe_get a_pc i;
        flush_post i bk ba be
      end
      else
        go tgt (bk + (tgt - i - 1))
          (ba + (Array.unsafe_get c_app tgt - Array.unsafe_get c_app (i + 1)))
          (be + (Array.unsafe_get c_est tgt - Array.unsafe_get c_est (i + 1)))
    end
  in
  go start start (Array.unsafe_get c_app start) (Array.unsafe_get c_est start)

let run_jit t j ~max_steps =
  while not t.halted do
    if t.executed >= max_steps then
      fail "exceeded %d steps without halting" max_steps;
    if t.disepc < Array.length t.cur.seq then
      step_in_sequence_core t t.cur ~expansion_start:false
    else if t.disepc <> 0 then ignore (step_core t)
    else begin
      let b = jit_dispatch t j in
      if b < 0 then ignore (step_core t)
      else if max_steps - t.executed <= Array.unsafe_get j.blk_len b then
        (* whole-block entry could overrun the step ceiling, which
           the block body does not check per entry: interpret until
           the ceiling check above fires *)
        ignore (step_core t)
      else run_block t j b ~max_steps
    end
  done;
  t.executed

let run ?(max_steps = default_max_steps) t =
  match t.jit with
  | Some j -> run_jit t j ~max_steps
  | None ->
    let rec go () =
      if (not t.halted) && t.executed >= max_steps then
        fail "exceeded %d steps without halting" max_steps;
      if step_core t then go () else t.executed
    in
    go ()
