(** Candidate scoring: turn a seed list into measurements and a
    scalar fitness.

    Every candidate is measured twice. The {e static} half
    ({!Dise_acf.Compress.compress_seeded}) yields the total
    compression ratio and — via {!Dise_core.Prodset.footprint} against
    the controller's PT/RT geometry — the hard capacity verdict; it
    always runs locally. The {e timing} half runs the candidate on the
    timing model through the result-cached {!Dise_service.Request}
    API (acf [Synth]), either on this process's domain pool or against
    a running [disesim serve] tier; unfit candidates are never
    simulated. On the local pool the static half's compression is
    handed to the timing run ([Request.run_ext ~seeded]), so a
    candidate is compressed once and nothing is re-enumerated; a
    serve worker rebuilds both from the seed list. Fitness rewards
    bytes saved and penalizes execution slowdown past a budget — see
    {!fitness}. *)

type backend =
  | Local of { jobs : int }  (** score on this process's domain pool *)
  | Serve of { path : string }
      (** ship timing runs to the serve tier listening on this
          Unix-socket path (v1 JSONL protocol, one pipelined
          connection per batch); static measurement stays local *)

type outcome = {
  fits : bool;
  ratio : float;  (** (text + dict) / original text *)
  rel : float;  (** cycles / baseline cycles; [nan] when unfit *)
  fitness : float;  (** [neg_infinity] when unfit *)
  fresh : bool;  (** measured by a simulator run this call (not from
                     the request disk cache or the journal) *)
}

val fitness :
  rel_budget:float -> slow_penalty:float -> ratio:float -> rel:float -> float
(** [(1 - ratio) - slow_penalty * max 0 (rel - rel_budget)]: the
    fraction of the binary eliminated, minus a linear penalty once
    decompression overhead exceeds the slowdown budget. *)

type t

val create :
  backend:backend ->
  base:Dise_service.Request.t ->
  entry:Dise_workload.Suite.entry ->
  scheme:Dise_acf.Compress.scheme ->
  corpus:Dise_acf.Compress.corpus ->
  controller:Dise_core.Controller.config ->
  baseline_cycles:int ->
  rel_budget:float ->
  slow_penalty:float ->
  t
(** [base] is the request template (bench, dyn_target, machine,
    controller, jit knobs); scoring swaps in the candidate's [Synth]
    acf, so each candidate caches under its own key. [corpus] must be
    built from [entry]'s program with [scheme]. *)

val score_batch : t -> Dise_acf.Compress.seed list array -> outcome array
(** Score candidates (results in submission order). Local backends
    evaluate whole candidates in parallel on the pool; serve backends
    parallelize the static half locally and pipeline the timing runs
    over one connection. Raises [Failure] on a serve-tier error
    response or a candidate whose compressed image faults — both mean
    a bug, not a bad candidate. *)

val seeds_key : Dise_acf.Compress.seed list -> string
(** Canonical journal/memo key: the compact JSON of the seed list as
    [[blk, start, len]] triples. *)
