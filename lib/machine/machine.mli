(** Functional emulator with DISE expansion semantics.

    The machine fetches application instructions by PC, offers each to
    an {e expander} (the DISE engine, injected as a closure so this
    library stays independent of the engine's implementation), and
    executes either the instruction itself or its replacement sequence.

    Replacement-sequence semantics follow the paper's two-level control
    model. Every dynamic instruction carries a [PC:DISEPC] pair; an
    application instruction has DISEPC 0. Within a sequence:

    - DISE-internal branches ([Dbr]/[Djmp]) modify the DISEPC only;
    - a taken application-level control transfer squashes the rest of
      the sequence (a non-trigger replacement branch is effectively
      predicted not-taken, exactly the behaviour the paper's fault
      isolation production relies on);
    - a sequence that runs to completion falls through to the next
      application PC;
    - codewords may not appear inside replacement sequences (no
      recursive expansion).

    Each {!step} returns an {!Event.t} describing the executed dynamic
    instruction; the trace-driven timing model consumes these. *)

type expansion = {
  rsid : int;             (** replacement sequence identifier *)
  seq : Dise_isa.Insn.t array;  (** fully instantiated sequence *)
}

type expander = pc:int -> Dise_isa.Insn.t -> expansion option

exception Runtime_error of string

module Event : sig
  type origin =
    | App  (** an ordinary application instruction *)
    | Rep of { rsid : int; offset : int; len : int }
        (** replacement instruction [offset] of a [len]-long sequence *)

  type branch = {
    taken : bool;
    target : int;        (** PC target, or DISEPC for internal branches *)
    dise_internal : bool;
  }

  type t = {
    pc : int;
    insn : Dise_isa.Insn.t;
    origin : origin;
    expansion_start : bool;
        (** true on the first instruction of an expansion: the cycle in
            which the engine recognized a trigger *)
    mem_addr : int option;
    branch : branch option;
    fetched_new_pc : bool;
        (** true when this event consumed a fresh application fetch
            (the I-cache is touched); replacement instructions after
            the first come from the RT and do not access the I-cache *)
  }
end

(** The allocation-free twin of {!Event.t}: a single mutable record
    per machine, overwritten by each executed instruction. {!run_raw}
    passes it to the sink instead of allocating an event; read the
    fields before the next step. *)
module Raw : sig
  type t = {
    mutable pc : int;
    mutable insn : Dise_isa.Insn.t;
    mutable rsid : int;  (** [-1] for an application instruction *)
    mutable offset : int;
    mutable len : int;
    mutable expansion_start : bool;
    mutable fetched_new_pc : bool;
    mutable mem_addr : int;  (** effective address, or {!no_mem} *)
    mutable branch : int;
        (** [-1] = no branch; else bit 0 = taken, bit 1 = dise_internal *)
    mutable target : int;
  }

  val no_mem : int
  (** Sentinel stored in [mem_addr] when the instruction made no memory
      access. *)

  val make : unit -> t
  (** A fresh scratch record (for callers translating {!Event.t}
      values back into raw form). *)
end

type t

val create :
  ?expander:expander -> ?entry:string -> Dise_isa.Program.Image.t -> t
(** [create image] builds a machine with PC at label [entry] (default
    ["main"], falling back to the image base), an empty memory, and a
    zeroed register file with [sp] pointing at [0x07FFFF00]. *)

val image : t -> Dise_isa.Program.Image.t
val memory : t -> Memory.t
val regs : t -> Regfile.t
val pc : t -> int
val disepc : t -> int
val halted : t -> bool

val executed : t -> int
(** Dynamic instructions executed (application + replacement). *)

val app_fetched : t -> int
(** Application-level instructions fetched (each trigger counts once,
    however long its replacement sequence). *)

val expansions : t -> int
(** Number of expansions performed. *)

val set_dise_reg : t -> int -> int -> unit
(** Controller-mediated write to a dedicated register. *)

val set_reg : t -> Dise_isa.Reg.t -> int -> unit

val interrupt : t -> int * int
(** Take a precise interrupt at the current PC:DISEPC boundary
    (Section 2.2): abandon the in-flight replacement sequence and
    return the [(pc, disepc)] pair the OS would save. Execution state
    (registers, memory) is already precise — every {!step} retires one
    whole instruction. *)

val resume : t -> pc:int -> disepc:int -> unit
(** Return from a handler to a saved [(pc, disepc)] pair. Fetch
    restarts at [pc]; the engine recognizes the DISEPC annotation and
    re-expands the replacement sequence, skipping its first [disepc]
    instructions. *)

val step : t -> Event.t option
(** Execute one dynamic instruction. [None] once halted. Raises
    {!Runtime_error} when the PC leaves the text or an illegal
    situation arises (codeword with no production, codeword inside a
    replacement sequence, memory fault). *)

val run : ?max_steps:int -> t -> int
(** Step until halt (or [max_steps], default 100 million). Returns
    executed-instruction count. Raises {!Runtime_error} once exactly
    [max_steps] instructions have executed without reaching a halt —
    never an instruction more; a program whose halting instruction is
    the [max_steps]-th completes normally. *)

val run_events : ?max_steps:int -> t -> (Event.t -> unit) -> int
(** Like {!run} but streams every event to the callback. *)

val raw : t -> Raw.t
(** The machine's scratch record, valid after any successful step. *)

val run_raw : ?max_steps:int -> ?poll:(unit -> unit) -> t -> (Raw.t -> unit) -> int
(** Like {!run_events} but streams the machine's single mutable
    {!Raw.t} scratch record to the sink. The sink must copy out
    anything it wants to keep. [poll] (if given) is called once every
    2048 events, a cooperative cancellation point for deadline
    enforcement.

    Steady state allocates nothing per dynamic instruction: once
    expansions are memoized, superblocks compiled and memory pages
    touched, an instruction executes without touching the minor heap,
    with the JIT on or off. test_uarch's "steady-state words per
    instruction" checks this: it counts [Gc.minor_words] between
    dynamic instructions 100 000 and 200 000 of bzip2 and mcf at 300K
    (baseline, MFI-DISE3 and [full_dise] decompression) and bounds it
    at 0.01 words per instruction. Warm-up (first expansions, trace
    compilation, new pages) does allocate. *)

val exit_code : t -> int
(** Value of r2 at halt, the program's exit-convention register. *)

(** {2 Trace/superblock JIT}

    Once an application PC has been dispatched [threshold] times at an
    expansion boundary, the straight-line code reachable from it — with
    every production expansion already applied — is flattened into a
    contiguous arena the run loop executes with zero per-fetch
    matching, hashing, or allocation. Soundness is generation-stamped:
    the engine bumps the shared [generation] counter on any production
    set swap or PT/RT write, which retires every superblock at the
    next application-instruction boundary. See [doc/jit.md]. *)

val default_jit_threshold : int
(** Dispatches of one PC before its trace is compiled (8). *)

val enable_jit : ?threshold:int -> ?generation:int ref -> t -> unit
(** Attach the superblock JIT. [generation] is the invalidation
    counter shared with the engine (see [Engine.attach_jit], which
    passes its own); when omitted the JIT can never be invalidated,
    which is only sound for a fixed production set. The expander must
    be pure and idempotent: compilation replays it ahead of
    execution. *)

val jit_enabled : t -> bool

type jit_state
(** A machine's superblock state — threshold, hot-PC counters, the
    compiled-trace arena, and the compile/hit/invalidation totals —
    detached from any particular machine. The arena is a pure function
    of the image text and the expander (production-set drift is
    covered by the generation stamp), so a state warmed by one machine
    can be re-adopted by a later machine over the same image and start
    at steady state. *)

val jit_state : t -> jit_state option
(** The machine's superblock state, for re-adoption elsewhere. *)

val adopt_jit : t -> jit_state -> bool
(** [adopt_jit m js] attaches an existing superblock state to [m],
    reusing every already-compiled trace. Returns [false] — leaving
    [m] untouched — unless [m]'s image text is physically the text
    [js] was compiled over. The caller is responsible for expander
    compatibility: adopting a state across engines with different
    production sets but a shared generation counter is unsound (going
    through {!Dise_core.Engine.attach_jit} gets this right). Two live
    machines may share a state, but only run-to-completion style:
    interleaved stepping risks one machine retiring superblocks (a
    generation bump) while the other is mid-trace. *)

val jit_compiles : t -> int
(** Superblocks compiled (0 when the JIT is disabled). *)

val jit_hits : t -> int
(** Dispatches served by an already-compiled superblock. *)

val jit_invalidations : t -> int
(** Superblocks retired by generation bumps. *)
