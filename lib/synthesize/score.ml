module Compress = Dise_acf.Compress
module Controller = Dise_core.Controller
module Prodset = Dise_core.Prodset
module Request = Dise_service.Request
module Pool = Dise_service.Pool
module Stats = Dise_uarch.Stats
module Json = Dise_telemetry.Json
module Diag = Dise_isa.Diag

type backend = Local of { jobs : int } | Serve of { path : string }

type outcome = {
  fits : bool;
  ratio : float;
  rel : float;
  fitness : float;
  fresh : bool;
}

let fitness ~rel_budget ~slow_penalty ~ratio ~rel =
  (1.0 -. ratio) -. (slow_penalty *. Float.max 0.0 (rel -. rel_budget))

type t = {
  backend : backend;
  base : Request.t;
  entry : Dise_workload.Suite.entry;
  scheme : Compress.scheme;
  corpus : Compress.corpus;
  controller : Controller.config;
  baseline_cycles : int;
  rel_budget : float;
  slow_penalty : float;
}

let create ~backend ~base ~entry ~scheme ~corpus ~controller ~baseline_cycles
    ~rel_budget ~slow_penalty =
  {
    backend;
    base;
    entry;
    scheme;
    corpus;
    controller;
    baseline_cycles;
    rel_budget;
    slow_penalty;
  }

let seeds_key seeds =
  Json.to_string
    (Json.List
       (List.map
          (fun (s : Compress.seed) ->
            Json.List
              [
                Json.Int s.Compress.s_blk;
                Json.Int s.Compress.s_start;
                Json.Int s.Compress.s_len;
              ])
          seeds))

(* Static half: ratio + capacity. [compress_seeded] only reads the
   shared corpus, so these run unsynchronized on pool domains. *)
let compressed t seeds =
  let r = Compress.compress_seeded t.corpus ~seeds in
  let fits =
    Prodset.fits
      ~entries_per_block:t.controller.Controller.rt_entries_per_block
      ~pt_entries:t.controller.Controller.pt_entries
      ~rt_entries:t.controller.Controller.rt_entries r.Compress.prodset
  in
  (r, fits, Compress.total_ratio r)

let static_of t seeds =
  let _, fits, ratio = compressed t seeds in
  (fits, ratio)

let request_of t seeds =
  { t.base with Request.acf = Request.Synth { scheme = t.scheme; seeds } }

let unfit ratio =
  { fits = false; ratio; rel = Float.nan; fitness = Float.neg_infinity;
    fresh = true }

let timed t ~ratio (stats : Stats.t) ~cache_hit =
  let rel = float_of_int stats.Stats.cycles /. float_of_int t.baseline_cycles in
  {
    fits = true;
    ratio;
    rel;
    fitness =
      fitness ~rel_budget:t.rel_budget ~slow_penalty:t.slow_penalty ~ratio ~rel;
    fresh = not cache_hit;
  }

(* The compression behind the verdict is the one the timing run
   needs, so it is handed over and the run enumerates nothing. *)
let eval_local t seeds () =
  let seeded, fits, ratio = compressed t seeds in
  if not fits then unfit ratio
  else
    match Request.run_ext ~entry:t.entry ~seeded (request_of t seeds) with
    | Ok (stats, cache_hit) -> timed t ~ratio stats ~cache_hit
    | Error d -> failwith ("synthesize: candidate run failed: " ^ Diag.to_string d)

(* One pipelined exchange on a fresh connection: all request lines
   out, then all responses back (the server answers in order). *)
let serve_exchange ~path (reqs : Request.t array) =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally (fun () ->
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with Unix.Unix_error (e, _, _) ->
         failwith
           (Printf.sprintf "synthesize: cannot reach serve tier at %s: %s" path
              (Unix.error_message e)));
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      Array.iteri
        (fun i req ->
          let members =
            match Request.to_json req with
            | Json.Obj ms -> ms
            | _ -> assert false
          in
          let envelope =
            Json.Obj (("v", Json.Int 1) :: ("id", Json.Int i) :: members)
          in
          output_string oc (Json.to_string envelope);
          output_char oc '\n')
        reqs;
      flush oc;
      (* Half-close: this is how the client ends its batch; the tier
         answers every line it has read and closes the connection
         once the write side has ended. *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      Array.mapi
        (fun i _ ->
          let line =
            try input_line ic
            with End_of_file ->
              failwith "synthesize: serve tier closed the connection mid-batch"
          in
          let j =
            try Json.parse line
            with Json.Parse_error m ->
              failwith ("synthesize: bad serve response: " ^ m)
          in
          (match Json.member "id" j with
          | Some (Json.Int got) when got = i -> ()
          | _ -> failwith "synthesize: serve response out of order");
          match Json.member "ok" j with
          | Some (Json.Bool true) -> (
            let stats =
              match Json.member "stats" j with
              | Some s -> (
                match Stats.of_json s with
                | Ok st -> st
                | Error m -> failwith ("synthesize: bad serve stats: " ^ m))
              | None -> failwith "synthesize: serve response missing stats"
            in
            let cache_hit =
              match Json.member "cache_hit" j with
              | Some (Json.Bool b) -> b
              | _ -> false
            in
            (stats, cache_hit))
          | _ ->
            let msg =
              match Json.member "error" j with
              | Some e -> (
                match Json.member "message" e with
                | Some (Json.String m) -> m
                | _ -> Json.to_string e)
              | None -> line
            in
            failwith ("synthesize: serve tier error: " ^ msg))
        reqs)

let score_batch t (seedss : Compress.seed list array) =
  match t.backend with
  | Local { jobs } ->
    Pool.run ~jobs (Array.map (fun seeds -> eval_local t seeds) seedss)
  | Serve { path } ->
    let statics =
      Pool.run (Array.map (fun seeds () -> static_of t seeds) seedss)
    in
    let fit_idx =
      Array.to_list statics
      |> List.mapi (fun i (fits, _) -> (i, fits))
      |> List.filter_map (fun (i, fits) -> if fits then Some i else None)
      |> Array.of_list
    in
    let reqs = Array.map (fun i -> request_of t seedss.(i)) fit_idx in
    let timings = serve_exchange ~path reqs in
    let out =
      Array.map (fun (_, ratio) -> unfit ratio) statics
    in
    Array.iteri
      (fun k i ->
        let _, ratio = statics.(i) in
        let stats, cache_hit = timings.(k) in
        out.(i) <- timed t ~ratio stats ~cache_hit)
      fit_idx;
    out
