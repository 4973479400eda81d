module I = Dise_isa.Insn
module Op = Dise_isa.Opcode
module Reg = Dise_isa.Reg
module Program = Dise_isa.Program
module R = Dise_core.Replacement
module Pattern = Dise_core.Pattern
module Production = Dise_core.Production
module Prodset = Dise_core.Prodset

type scheme = {
  name : string;
  codeword_bytes : int;
  min_len : int;
  max_len : int;
  max_params : int;
  dict_entry_bytes : int;
  compress_branches : bool;
  max_entries : int;
}

let dedicated =
  {
    name = "dedicated";
    codeword_bytes = 2;
    min_len = 1;
    max_len = 8;
    max_params = 0;
    dict_entry_bytes = 4;
    compress_branches = false;
    max_entries = 2048;
  }

let minus_1insn = { dedicated with name = "-1insn"; min_len = 2 }
let minus_2byte_cw = { minus_1insn with name = "-2byteCW"; codeword_bytes = 4 }
let plus_8byte_de = { minus_2byte_cw with name = "+8byteDE"; dict_entry_bytes = 8 }
let plus_3param = { plus_8byte_de with name = "+3param"; max_params = 3 }
let full_dise = { plus_3param with name = "DISE"; compress_branches = true }

let fig7_schemes =
  [ dedicated; minus_1insn; minus_2byte_cw; plus_8byte_de; plus_3param;
    full_dise ]

(* --- instruction fields ---------------------------------------------- *)

type fval =
  | Vreg of int
  | Vimm of int
  | Vtarget of I.target

(* Canonical field vectors per instruction constructor. Only
   architectural-register, candidate-legal instructions reach these. *)
let reg_num r =
  match r with Reg.R n -> n | Reg.D _ -> invalid_arg "Compress: dedicated reg"

let fields_of (i : I.t) : fval array =
  match i with
  | I.Rop (_, a, b, c) -> [| Vreg (reg_num a); Vreg (reg_num b); Vreg (reg_num c) |]
  | I.Ropi (_, a, v, c) -> [| Vreg (reg_num a); Vimm v; Vreg (reg_num c) |]
  | I.Lda (a, v, c) -> [| Vreg (reg_num a); Vimm v; Vreg (reg_num c) |]
  | I.Lui (v, c) -> [| Vimm v; Vreg (reg_num c) |]
  | I.Mem (_, a, v, c) -> [| Vreg (reg_num a); Vimm v; Vreg (reg_num c) |]
  | I.Br (_, r, t) -> [| Vreg (reg_num r); Vtarget t |]
  | I.Jmp t | I.Jal t -> [| Vtarget t |]
  | I.Jr r -> [| Vreg (reg_num r) |]
  | I.Jalr (a, b) -> [| Vreg (reg_num a); Vreg (reg_num b) |]
  | I.Nop | I.Halt -> [||]
  | I.Dbr _ | I.Djmp _ | I.Codeword _ ->
    invalid_arg "Compress.fields_of: illegal candidate instruction"

let rebuild (i : I.t) (f : fval array) : I.t =
  let reg k = match f.(k) with Vreg n -> Reg.r n | _ -> assert false in
  let imm k = match f.(k) with Vimm v -> v | _ -> assert false in
  let tgt k = match f.(k) with Vtarget t -> t | _ -> assert false in
  match i with
  | I.Rop (op, _, _, _) -> I.Rop (op, reg 0, reg 1, reg 2)
  | I.Ropi (op, _, _, _) -> I.Ropi (op, reg 0, imm 1, reg 2)
  | I.Lda _ -> I.Lda (reg 0, imm 1, reg 2)
  | I.Lui _ -> I.Lui (imm 0, reg 1)
  | I.Mem (op, _, _, _) -> I.Mem (op, reg 0, imm 1, reg 2)
  | I.Br (op, _, _) -> I.Br (op, reg 0, tgt 1)
  | I.Jmp _ -> I.Jmp (tgt 0)
  | I.Jal _ -> I.Jal (tgt 0)
  | I.Jr _ -> I.Jr (reg 0)
  | I.Jalr _ -> I.Jalr (reg 0, reg 1)
  | I.Nop -> I.Nop
  | I.Halt -> I.Halt
  | I.Dbr _ | I.Djmp _ | I.Codeword _ -> assert false

(* A field is "rigid" when it can never be parameterized: direct
   jump/call targets (26 bits do not fit a parameter). *)
let rigid_field insn k =
  match insn with
  | I.Jmp _ | I.Jal _ -> k = 0
  | _ -> false

(* May this instruction appear in a candidate at all? *)
let legal scheme insn =
  match insn with
  | I.Codeword _ | I.Dbr _ | I.Djmp _ -> false
  | I.Br _ -> scheme.compress_branches
  | _ -> true

(* --- basic blocks ----------------------------------------------------- *)

type seg =
  | Lbl of string
  | Blk of I.t array

let split_blocks (prog : Program.t) : seg list =
  let segs = ref [] in
  let cur = ref [] in
  let flush () =
    if !cur <> [] then begin
      segs := Blk (Array.of_list (List.rev !cur)) :: !segs;
      cur := []
    end
  in
  List.iter
    (fun item ->
      match item with
      | Program.Label l ->
        flush ();
        segs := Lbl l :: !segs
      | Program.Ins i ->
        cur := i :: !cur;
        if I.is_control i then flush ())
    prog;
  flush ();
  List.rev !segs

(* --- candidate groups -------------------------------------------------- *)

type inst = {
  blk : int;
  start : int;
  vec : fval array array;
}

type group = {
  key : I.t list;  (* normalized: flexible fields zeroed *)
  len : int;
  repr : I.t array;
  mutable insts : inst list;
}

let normalize scheme insn =
  let f = fields_of insn in
  let f' =
    Array.mapi
      (fun k v ->
        if scheme.max_params = 0 || rigid_field insn k then v
        else
          match v with
          | Vreg _ -> Vreg 0
          | Vimm _ -> Vimm 0
          | Vtarget _ -> Vtarget (I.Abs 0))
      f
  in
  rebuild insn f'

(* --- max-heap for lazy greedy ----------------------------------------- *)

module Heap = struct
  type 'a t = {
    mutable arr : (float * 'a) option array;
    mutable n : int;
  }

  let create () = { arr = Array.make 1024 None; n = 0 }

  let swap h i j =
    let t = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- t

  let pri h i = match h.arr.(i) with Some (p, _) -> p | None -> neg_infinity

  let push h p v =
    if h.n = Array.length h.arr then begin
      let bigger = Array.make (2 * h.n) None in
      Array.blit h.arr 0 bigger 0 h.n;
      h.arr <- bigger
    end;
    h.arr.(h.n) <- Some (p, v);
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && pri h ((!i - 1) / 2) < pri h !i do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let peek h = if h.n = 0 then None else h.arr.(0)

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.arr.(0) in
      h.n <- h.n - 1;
      h.arr.(0) <- h.arr.(h.n);
      h.arr.(h.n) <- None;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.n && pri h l > pri h !m then m := l;
        if r < h.n && pri h r > pri h !m then m := r;
        if !m <> !i then begin
          swap h !i !m;
          i := !m
        end
        else continue := false
      done;
      top
    end
end

(* --- template construction --------------------------------------------- *)

type pkind = [ `Reg | `Imm5 | `Imm10 | `Off10 ]

type param = {
  pos : int * int;  (* insn index, field index *)
  kind : pkind;
  field : int;      (* first codeword parameter field, 1-based *)
}

type template = {
  base : fval array array;
  params : param list;  (* fields assigned, sorted *)
  covered : inst list;
  benefit : float;
}

let fits5 v = v >= -16 && v <= 15
let fits10 v = v >= -512 && v <= 511

let param_cost = function `Reg | `Imm5 -> 1 | `Imm10 | `Off10 -> 2

(* Build the best template for a group from its live instances. *)
let build_template scheme (g : group) (live : inst list) : template option =
  if live = [] then None
  else begin
    (* Distinct field vectors with counts. *)
    let tbl : (fval array array, inst list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun inst ->
        match Hashtbl.find_opt tbl inst.vec with
        | Some l -> l := inst :: !l
        | None -> Hashtbl.replace tbl inst.vec (ref [ inst ]))
      live;
    let distinct =
      Hashtbl.fold (fun vec l acc -> (vec, !l) :: acc) tbl []
      |> List.sort (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
    in
    match distinct with
    | [] -> None
    | (base_vec, base_insts) :: rest ->
      (* Greedily grow coverage under the parameter-slot budget. *)
      let params : ((int * int) * pkind) list ref = ref [] in
      let covered = ref base_insts in
      let covered_vecs = ref [ base_vec ] in
      let try_add (vec, insts) =
        (* positions where this vector differs from the base *)
        let diffs = ref [] in
        Array.iteri
          (fun ii fields ->
            Array.iteri
              (fun fi v -> if v <> base_vec.(ii).(fi) then diffs := ((ii, fi), v) :: !diffs)
              fields)
          vec;
        let ok = ref (scheme.max_params > 0) in
        (* Merge the new positions into the param set, computing kinds
           from the union of covered values. *)
        let new_params = ref !params in
        List.iter
          (fun ((ii, fi), _) ->
            if not (List.mem_assoc (ii, fi) !new_params) then begin
              if rigid_field g.repr.(ii) fi then ok := false
              else
                let kind =
                  match base_vec.(ii).(fi) with
                  | Vreg _ -> Some `Reg
                  | Vimm _ -> Some `Imm5 (* width refined below *)
                  | Vtarget _ ->
                    if scheme.compress_branches then Some `Off10 else None
                in
                match kind with
                | Some k -> new_params := ((ii, fi), k) :: !new_params
                | None -> ok := false
            end)
          !diffs;
        if !ok then begin
          (* Refine immediate widths over all covered vectors + new. *)
          let vecs = vec :: !covered_vecs in
          new_params :=
            List.map
              (fun ((ii, fi), k) ->
                match k with
                | `Reg | `Off10 -> ((ii, fi), k)
                | `Imm5 | `Imm10 ->
                  let widest =
                    List.fold_left
                      (fun acc v ->
                        match v.(ii).(fi) with
                        | Vimm x ->
                          if fits5 x then max acc 1
                          else if fits10 x then max acc 2
                          else max acc 3
                        | Vreg _ | Vtarget _ -> acc)
                      1 vecs
                  in
                  ( (ii, fi),
                    if widest = 1 then `Imm5
                    else if widest = 2 then `Imm10
                    else `Off10 (* placeholder; rejected below *) ))
              !new_params;
          let too_wide =
            List.exists
              (fun ((ii, fi), k) ->
                match k, base_vec.(ii).(fi) with
                | `Off10, Vimm _ -> true (* immediate too wide for 10 bits *)
                | _ -> false)
              !new_params
          in
          let cost =
            List.fold_left (fun acc (_, k) -> acc + param_cost k) 0 !new_params
          in
          if (not too_wide) && cost <= scheme.max_params then begin
            params := !new_params;
            covered := insts @ !covered;
            covered_vecs := vecs
          end
        end
      in
      List.iter try_add rest;
      (* Branch targets must be parameterized whenever covered vectors
         disagree; when they agree the branch target stays literal
         (replacement targets are absolute, hence position-independent).
         That is already what the diff logic produced. *)
      let n_covered = List.length !covered in
      let saved_per = (4 * g.len) - scheme.codeword_bytes in
      let benefit =
        float_of_int (n_covered * saved_per)
        -. float_of_int (scheme.dict_entry_bytes * g.len)
      in
      (* Assign codeword parameter fields in position order. *)
      let sorted =
        List.sort (fun (p1, _) (p2, _) -> compare p1 p2) !params
      in
      let next = ref 1 in
      let with_fields =
        List.map
          (fun (pos, kind) ->
            let field = !next in
            next := !next + param_cost kind;
            { pos; kind; field })
          sorted
      in
      Some
        { base = base_vec; params = with_fields; covered = !covered; benefit }
  end

(* --- selection --------------------------------------------------------- *)

type chosen = {
  tag : int;
  repr : I.t array;
  tpl : template;
  mutable active : inst list;
}

let inst_free consumed inst len =
  let c = consumed.(inst.blk) in
  let rec go k = k >= len || ((not c.(inst.start + k)) && go (k + 1)) in
  go 0

let mark_consumed consumed inst len =
  let c = consumed.(inst.blk) in
  for k = 0 to len - 1 do
    c.(inst.start + k) <- true
  done

(* --- template -> replacement spec -------------------------------------- *)

let spec_of_template (repr : I.t array) (tpl : template) : R.t =
  let param_at pos = List.find_opt (fun p -> p.pos = pos) tpl.params in
  Array.of_list
    (List.mapi
       (fun ii insn ->
         let vec = tpl.base.(ii) in
         let reg fi =
           match param_at (ii, fi) with
           | Some { kind = `Reg; field; _ } -> R.Rparam field
           | Some _ -> assert false
           | None -> (
             match vec.(fi) with
             | Vreg n -> R.Rlit (Reg.r n)
             | Vimm _ | Vtarget _ -> assert false)
         in
         let imm fi =
           match param_at (ii, fi) with
           | Some { kind = `Imm5; field; _ } -> R.Iparam field
           | Some { kind = `Imm10; field; _ } -> R.Iparam2 field
           | Some _ -> assert false
           | None -> (
             match vec.(fi) with
             | Vimm v -> R.Ilit v
             | Vreg _ | Vtarget _ -> assert false)
         in
         let tgt fi =
           match param_at (ii, fi) with
           | Some { kind = `Off10; field; _ } -> R.Trel_param2 field
           | Some _ -> assert false
           | None -> (
             match vec.(fi) with
             | Vtarget (I.Abs a) -> R.Tabs a
             | Vtarget (I.Lab l) -> R.Tlab l
             | Vreg _ | Vimm _ -> assert false)
         in
         match insn with
         | I.Rop (op, _, _, _) -> R.Rop (op, reg 0, reg 1, reg 2)
         | I.Ropi (op, _, _, _) -> R.Ropi (op, reg 0, imm 1, reg 2)
         | I.Lda _ -> R.Lda (reg 0, imm 1, reg 2)
         | I.Lui _ -> R.Lui (imm 0, reg 1)
         | I.Mem (op, _, _, _) -> R.Mem (op, reg 0, imm 1, reg 2)
         | I.Br (op, _, _) -> R.Br (op, reg 0, tgt 1)
         | I.Jmp _ -> R.Jmp (tgt 0)
         | I.Jal _ -> R.Jal (tgt 0)
         | I.Jr _ -> R.Jr (reg 0)
         | I.Jalr _ -> R.Jalr (reg 0, reg 1)
         | I.Nop -> R.Nop
         | I.Halt -> R.Halt
         | I.Dbr _ | I.Djmp _ | I.Codeword _ -> assert false)
       (Array.to_list repr))

(* Parameter field values for one instance (target params resolved
   later); returns the three codeword fields. *)
let codeword_fields tpl inst ~offset_of =
  let fields = Array.make 4 0 in  (* 1-based *)
  List.iter
    (fun p ->
      let ii, fi = p.pos in
      match p.kind, inst.vec.(ii).(fi) with
      | `Reg, Vreg n -> fields.(p.field) <- n
      | `Imm5, Vimm v -> fields.(p.field) <- R.to_field5 v
      | `Imm10, Vimm v ->
        let hi, lo = R.to_fields10 v in
        fields.(p.field) <- hi;
        fields.(p.field + 1) <- lo
      | `Off10, Vtarget t ->
        let off = offset_of ~inst ~pos:p.pos t in
        let hi, lo = R.to_fields10 off in
        fields.(p.field) <- hi;
        fields.(p.field + 1) <- lo
      | _ -> assert false)
    tpl.params;
  (fields.(1), fields.(2), fields.(3))

type entry = {
  tag : int;
  spec : R.t;
  len : int;
  param_fields : int;
  uses : int;
}

type result = {
  scheme : scheme;
  program : Program.t;
  image : Program.Image.t;
  prodset : Prodset.t;
  entries : entry list;
  orig_text_bytes : int;
  text_bytes : int;
  dict_bytes : int;
  codewords : int;
}

let code_base = 0x00100000

(* Candidate enumeration, shared by the greedy compressor and the
   seeded (search-driven) one: split into basic blocks and bucket
   every legal window into a group keyed by its normalized text. *)
let enumerate scheme prog =
  let segs = split_blocks prog in
  let blocks =
    List.filter_map (function Blk a -> Some a | Lbl _ -> None) segs
    |> Array.of_list
  in
  let groups : (I.t list * int, group) Hashtbl.t = Hashtbl.create 4096 in
  Array.iteri
    (fun bi arr ->
      let n = Array.length arr in
      let legal_at = Array.map (legal scheme) arr in
      let norms =
        Array.mapi
          (fun k i -> if legal_at.(k) then normalize scheme i else I.Nop)
          arr
      in
      let fvecs =
        Array.mapi
          (fun k i -> if legal_at.(k) then fields_of i else [||])
          arr
      in
      for start = 0 to n - 1 do
        let maxl = min scheme.max_len (n - start) in
        let len = ref 1 in
        let stop = ref false in
        while (not !stop) && !len <= maxl do
          let l = !len in
          (* positions are vetted incrementally as the window grows *)
          if not legal_at.(start + l - 1) then stop := true
          else if l >= scheme.min_len then begin
            let key = (Array.to_list (Array.sub norms start l), l) in
            let inst = { blk = bi; start; vec = Array.sub fvecs start l } in
            match Hashtbl.find_opt groups key with
            | Some g -> g.insts <- inst :: g.insts
            | None ->
              Hashtbl.replace groups key
                {
                  key = fst key;
                  len = l;
                  repr = Array.sub arr start l;
                  insts = [ inst ];
                }
          end;
          incr len
        done
      done)
    blocks;
  (segs, blocks, groups)

let rec compress ~scheme prog =
  let segs, blocks, groups = enumerate scheme prog in
  (* Lazy greedy selection. *)
  let consumed = Array.map (fun arr -> Array.make (Array.length arr) false) blocks in
  let heap = Heap.create () in
  let current_template (g : group) =
    let live = List.filter (fun i -> inst_free consumed i g.len) g.insts in
    build_template scheme g live
  in
  Hashtbl.iter
    (fun _ g ->
      match current_template g with
      | Some t when t.benefit > 0. -> Heap.push heap t.benefit g
      | Some _ | None -> ())
    groups;
  let chosen = ref [] in
  let n_chosen = ref 0 in
  let rec select () =
    if !n_chosen >= scheme.max_entries then ()
    else
      match Heap.pop heap with
      | None -> ()
      | Some (stale, g) -> (
        match current_template g with
        | None -> select ()
        | Some t ->
          if t.benefit <= 0. then select ()
          else
            let next_best =
              match Heap.peek heap with Some (p, _) -> p | None -> neg_infinity
            in
            if t.benefit +. 1e-9 < next_best then begin
              (* Stale priority: reinsert with the fresh value. *)
              ignore stale;
              Heap.push heap t.benefit g;
              select ()
            end
            else begin
              let active =
                List.filter (fun i -> inst_free consumed i g.len) t.covered
              in
              if active <> [] then begin
                List.iter (fun i -> mark_consumed consumed i g.len) active;
                chosen :=
                  { tag = !n_chosen; repr = g.repr; tpl = t; active }
                  :: !chosen;
                incr n_chosen;
                (* The group may still have uncovered distinct
                   instances; requeue it. *)
                (match current_template g with
                | Some t' when t'.benefit > 0. -> Heap.push heap t'.benefit g
                | Some _ | None -> ())
              end;
              select ()
            end)
  in
  select ();
  finalize ~scheme ~prog ~segs (Array.of_list (List.rev !chosen))

and finalize ~scheme ~prog ~segs (chosen : chosen array) =
  (* Map from (blk, start) to the chosen entry covering it. *)
  let starts : (int * int, chosen * inst) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun c ->
      List.iter (fun i -> Hashtbl.replace starts (i.blk, i.start) (c, i))
      c.active)
    chosen;
  let entry_len c = Array.length c.repr in
  (* Rebuild the program from blocks + decisions. [offset_of] supplies
     branch-offset parameter values (0 in probe passes). *)
  let rebuild ~offset_of =
    let bi = ref (-1) in
    let items =
      List.concat_map
        (fun seg ->
          match seg with
          | Lbl l -> [ Program.Label l ]
          | Blk arr ->
            incr bi;
            let blk = !bi in
            let out = ref [] in
            let pos = ref 0 in
            let n = Array.length arr in
            while !pos < n do
              (match Hashtbl.find_opt starts (blk, !pos) with
              | Some (c, inst) ->
                let p1, p2, p3 = codeword_fields c.tpl inst ~offset_of in
                out :=
                  Program.Ins (I.codeword ~op:0 ~p1 ~p2 ~p3 ~tag:c.tag)
                  :: !out;
                pos := !pos + entry_len c
              | None ->
                out := Program.Ins arr.(!pos) :: !out;
                incr pos)
            done;
            List.rev !out)
        segs
    in
    items
  in
  let size_of = function
    | I.Codeword _ -> scheme.codeword_bytes
    | _ -> 4
  in
  (* Fixpoint: lay out, check branch-offset parameters, un-compress
     violating instances. *)
  let zero_offsets ~inst:_ ~pos:_ _ = 0 in
  let rec fixpoint () =
    let prog' = rebuild ~offset_of:zero_offsets in
    let img = Program.layout ~base:code_base ~size_of prog' in
    (* Walk the blocks in rebuild order, counting emitted instructions,
       to recover each codeword's address; check every active
       instance's Off10 params against it. Codeword sizes are fixed, so
       the converged iteration's addresses are final. *)
    let addr_tbl : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
    let violations = ref [] in
    let bi = ref (-1) in
    let idx = ref 0 in
    List.iter
      (fun seg ->
        match seg with
        | Lbl _ -> ()
        | Blk arr ->
          incr bi;
          let blk = !bi in
          let pos = ref 0 in
          let n = Array.length arr in
          while !pos < n do
            match Hashtbl.find_opt starts (blk, !pos) with
            | Some (c, inst) ->
              let addr = Program.Image.addr_of_index img !idx in
              Hashtbl.replace addr_tbl (blk, inst.start) addr;
              List.iter
                (fun p ->
                  match p.kind with
                  | `Off10 -> (
                    let ii, fi = p.pos in
                    match inst.vec.(ii).(fi) with
                    | Vtarget t -> (
                      let target =
                        match t with
                        | I.Abs a -> Some a
                        | I.Lab l -> Program.Image.symbol img l
                      in
                      match target with
                      | Some ta ->
                        let off = (ta - addr) / 4 in
                        if not (fits10 off && (ta - addr) mod 4 = 0) then
                          violations := (blk, inst.start) :: !violations
                      | None -> violations := (blk, inst.start) :: !violations)
                    | _ -> ())
                  | _ -> ())
                c.tpl.params;
              incr idx;
              pos := !pos + entry_len c
            | None ->
              incr idx;
              incr pos
          done)
      segs;
    if !violations = [] then (addr_tbl, img)
    else begin
      (* Un-compress the violating instances and re-lay-out; each round
         removes at least one instance, so this terminates. *)
      List.iter (fun k -> Hashtbl.remove starts k) !violations;
      fixpoint ()
    end
  in
  let addr_tbl, layout_img = fixpoint () in
  let offset_of ~inst ~pos:_ t =
    let addr =
      match Hashtbl.find_opt addr_tbl (inst.blk, inst.start) with
      | Some a -> a
      | None -> assert false
    in
    let target =
      match t with
      | I.Abs a -> a
      | I.Lab l -> (
        match Program.Image.symbol layout_img l with
        | Some a -> a
        | None -> invalid_arg ("Compress: unknown label " ^ l))
    in
    (target - addr) / 4
  in
  let final_prog = rebuild ~offset_of in
  let image = Program.layout ~base:code_base ~size_of final_prog in
  (* Surviving uses per entry. *)
  let uses = Array.make (Array.length chosen) 0 in
  Hashtbl.iter (fun _ ((c : chosen), _) -> uses.(c.tag) <- uses.(c.tag) + 1)
    starts;
  let entries =
    Array.to_list chosen
    |> List.filter_map (fun (c : chosen) ->
           if uses.(c.tag) = 0 then None
           else
             Some
               {
                 tag = c.tag;
                 spec = spec_of_template c.repr c.tpl;
                 len = Array.length c.repr;
                 param_fields =
                   List.fold_left
                     (fun acc p -> acc + param_cost p.kind)
                     0 c.tpl.params;
                 uses = uses.(c.tag);
               })
  in
  let prodset =
    let set =
      List.fold_left
        (fun s e -> Prodset.define_sequence s e.tag e.spec)
        Prodset.empty entries
    in
    let set =
      if entries = [] then set
      else
        Prodset.add_production set
          (Production.make ~name:"decompress" (Pattern.codewords 0)
             Production.From_tag)
    in
    Prodset.resolve_labels (Program.Image.symbol image) set
  in
  let codewords = Hashtbl.length starts in
  {
    scheme;
    program = final_prog;
    image;
    prodset;
    entries;
    orig_text_bytes = 4 * Program.size prog;
    text_bytes = Program.Image.text_bytes image;
    dict_bytes =
      List.fold_left (fun acc e -> acc + (e.len * scheme.dict_entry_bytes)) 0
        entries;
    codewords;
  }

let compression_ratio r =
  float_of_int r.text_bytes /. float_of_int r.orig_text_bytes

let total_ratio r =
  float_of_int (r.text_bytes + r.dict_bytes)
  /. float_of_int r.orig_text_bytes

(* --- seeded (search-driven) compression --------------------------------- *)

(* A seed names one candidate window by position: instruction
   [s_start..s_start+s_len) of basic block [s_blk] (blocks numbered in
   program order, labels excluded). The seed stands for the whole
   {e group} of windows sharing its normalized text — exactly the unit
   the greedy compressor ranks — so a seed list is a complete, compact
   description of a dictionary that an external search (disesim
   synthesize) can mutate, serialize, and replay. *)
type seed = { s_blk : int; s_start : int; s_len : int }

type corpus = {
  c_scheme : scheme;
  c_prog : Program.t;
  c_segs : seg list;
  c_blocks : I.t array array;
  c_groups : (I.t list * int, group) Hashtbl.t;
  c_index : int array;  (* block -> global instruction index of its head *)
}

let corpus ~scheme prog =
  let segs, blocks, groups = enumerate scheme prog in
  let c_index = Array.make (max 1 (Array.length blocks)) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i arr ->
      c_index.(i) <- !acc;
      acc := !acc + Array.length arr)
    blocks;
  {
    c_scheme = scheme;
    c_prog = prog;
    c_segs = segs;
    c_blocks = blocks;
    c_groups = groups;
    c_index;
  }

type window = {
  w_seed : seed;
  w_len : int;
  w_count : int;
  w_sites : (int * int * int) list;
}

let windows c =
  Hashtbl.fold
    (fun (_, len) g acc ->
      let sites =
        List.map
          (fun i -> (i.blk, i.start, c.c_index.(i.blk) + i.start))
          g.insts
        |> List.sort compare
      in
      match sites with
      | [] -> acc
      | (blk, start, _) :: _ ->
        {
          w_seed = { s_blk = blk; s_start = start; s_len = len };
          w_len = len;
          w_count = List.length sites;
          w_sites = sites;
        }
        :: acc)
    c.c_groups []
  |> List.sort (fun a b -> compare a.w_seed b.w_seed)

(* Resolve a seed back to its group: recompute the normalized key from
   the program text at the seed's position. A seed that no longer
   names a legal window (out of bounds, stale journal against a
   different program) resolves to nothing and is skipped. *)
let group_at c (s : seed) =
  if s.s_blk < 0 || s.s_blk >= Array.length c.c_blocks then None
  else
    let arr = c.c_blocks.(s.s_blk) in
    if
      s.s_len < max 1 c.c_scheme.min_len
      || s.s_len > c.c_scheme.max_len
      || s.s_start < 0
      || s.s_start + s.s_len > Array.length arr
      || not
           (Array.for_all (legal c.c_scheme)
              (Array.sub arr s.s_start s.s_len))
    then None
    else
      let key =
        ( Array.to_list
            (Array.init s.s_len (fun k ->
                 normalize c.c_scheme arr.(s.s_start + k))),
          s.s_len )
      in
      Hashtbl.find_opt c.c_groups key

let compress_seeded c ~seeds =
  let scheme = c.c_scheme in
  let consumed =
    Array.map (fun arr -> Array.make (Array.length arr) false) c.c_blocks
  in
  let chosen = ref [] in
  let n = ref 0 in
  (* Seeds are honored in list order: earlier seeds consume windows
     first, exactly like greedy rank order does — so the search's
     accept/reject moves compose deterministically. *)
  List.iter
    (fun s ->
      if !n < scheme.max_entries then
        match group_at c s with
        | None -> ()
        | Some g -> (
          let live = List.filter (fun i -> inst_free consumed i g.len) g.insts in
          match build_template scheme g live with
          | None -> ()
          | Some t ->
            let active =
              List.filter (fun i -> inst_free consumed i g.len) t.covered
            in
            if active <> [] then begin
              List.iter (fun i -> mark_consumed consumed i g.len) active;
              chosen := { tag = !n; repr = g.repr; tpl = t; active } :: !chosen;
              incr n
            end))
    seeds;
  finalize ~scheme ~prog:c.c_prog ~segs:c.c_segs
    (Array.of_list (List.rev !chosen))
