type target =
  | Abs of int
  | Lab of string

type t =
  | Rop of Opcode.rop * Reg.t * Reg.t * Reg.t
  | Ropi of Opcode.rop * Reg.t * int * Reg.t
  | Lda of Reg.t * int * Reg.t
  | Lui of int * Reg.t
  | Mem of Opcode.mop * Reg.t * int * Reg.t
  | Br of Opcode.bop * Reg.t * target
  | Jmp of target
  | Jal of target
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t
  | Dbr of Opcode.bop * Reg.t * int
  | Djmp of int
  | Codeword of { op : int; p1 : int; p2 : int; p3 : int; tag : int }
  | Nop
  | Halt

let cls = function
  | Rop _ | Ropi _ | Lda _ | Lui _ -> Opcode.C_alu
  | Mem ((Ldq | Ldbu), _, _, _) -> Opcode.C_load
  | Mem ((Stq | Stb), _, _, _) -> Opcode.C_store
  | Br _ -> Opcode.C_branch
  | Jmp _ | Jal _ -> Opcode.C_jump
  | Jr _ | Jalr _ -> Opcode.C_ijump
  | Dbr _ | Djmp _ -> Opcode.C_dise
  | Codeword _ -> Opcode.C_codeword
  | Nop -> Opcode.C_nop
  | Halt -> Opcode.C_sys

let rs = function
  | Rop (_, rs, _, _) | Ropi (_, rs, _, _) | Lda (rs, _, _)
  | Mem (_, rs, _, _) | Br (_, rs, _) | Jr rs | Jalr (rs, _)
  | Dbr (_, rs, _) ->
    Some rs
  | Lui _ | Jmp _ | Jal _ | Djmp _ | Codeword _ | Nop | Halt -> None

let rt = function
  | Rop (_, _, rt, _) | Mem (_, _, _, rt) -> Some rt
  | Ropi _ | Lda _ | Lui _ | Br _ | Jmp _ | Jal _ | Jr _ | Jalr _ | Dbr _
  | Djmp _ | Codeword _ | Nop | Halt ->
    None

let rd = function
  | Rop (_, _, _, rd) | Ropi (_, _, _, rd) | Lda (_, _, rd) | Lui (_, rd)
  | Jalr (_, rd) ->
    Some rd
  | Mem ((Ldq | Ldbu), _, _, rt) -> Some rt
  | Mem ((Stq | Stb), _, _, _) -> None
  | Br _ | Jmp _ | Jr _ | Dbr _ | Djmp _ | Codeword _ | Nop | Halt -> None
  | Jal _ -> Some Reg.ra

let imm = function
  | Ropi (_, _, i, _) | Lda (_, i, _) | Lui (i, _) | Mem (_, _, i, _) ->
    Some i
  | Br (_, _, Abs a) -> Some a
  | Rop _ | Br (_, _, Lab _) | Jmp _ | Jal _ | Jr _ | Jalr _ | Dbr _
  | Djmp _ | Codeword _ | Nop | Halt ->
    None

let branch_target = function
  | Br (_, _, t) | Jmp t | Jal t -> Some t
  | Rop _ | Ropi _ | Lda _ | Lui _ | Mem _ | Jr _ | Jalr _ | Dbr _ | Djmp _
  | Codeword _ | Nop | Halt ->
    None

let non_zero r = not (Reg.equal r Reg.zero)

let defs i =
  let d =
    match i with
    | Rop (_, _, _, rd) | Ropi (_, _, _, rd) | Lda (_, _, rd) | Lui (_, rd)
    | Jalr (_, rd) | Mem ((Ldq | Ldbu), _, _, rd) ->
      [ rd ]
    | Jal _ -> [ Reg.ra ]
    | Mem ((Stq | Stb), _, _, _) | Br _ | Jmp _ | Jr _ | Dbr _ | Djmp _
    | Codeword _ | Nop | Halt ->
      []
  in
  List.filter non_zero d

let uses i =
  let u =
    match i with
    | Rop (_, rs, rt, _) -> [ rs; rt ]
    | Ropi (_, rs, _, _) | Lda (rs, _, _) | Mem ((Ldq | Ldbu), rs, _, _)
    | Br (_, rs, _) | Jr rs | Jalr (rs, _) | Dbr (_, rs, _) ->
      [ rs ]
    | Mem ((Stq | Stb), rs, _, rt) -> [ rs; rt ]
    | Lui _ | Jmp _ | Jal _ | Djmp _ | Codeword _ | Nop | Halt -> []
  in
  List.filter non_zero u

let is_control = function
  | Br _ | Jmp _ | Jal _ | Jr _ | Jalr _ | Halt -> true
  | Rop _ | Ropi _ | Lda _ | Lui _ | Mem _ | Dbr _ | Djmp _ | Codeword _
  | Nop ->
    false

let writes_memory = function
  | Mem ((Stq | Stb), _, _, _) -> true
  | _ -> false

let reads_memory = function
  | Mem ((Ldq | Ldbu), _, _, _) -> true
  | _ -> false

let codeword ~op ~p1 ~p2 ~p3 ~tag =
  if op < 0 || op >= Opcode.num_reserved then
    invalid_arg "Insn.codeword: reserved opcode out of range";
  let check5 name v =
    if v < 0 || v > 31 then
      invalid_arg (Printf.sprintf "Insn.codeword: %s out of 5-bit range" name)
  in
  check5 "p1" p1;
  check5 "p2" p2;
  check5 "p3" p3;
  if tag < 0 || tag > 2047 then
    invalid_arg "Insn.codeword: tag out of 11-bit range";
  Codeword { op; p1; p2; p3; tag }

(* Dense dispatch keys. Layout:
   Rop: 0..13, Ropi: 14..27, Lda: 28, Lui: 29, Mem: 30..33, Br: 34..39,
   Jmp: 40, Jal: 41, Jr: 42, Jalr: 43, Dbr: 44..49, Djmp: 50,
   Codeword: 51..54, Nop: 55, Halt: 56. *)

let rop_index op =
  let rec find i = function
    | [] -> assert false
    | x :: rest -> if x = op then i else find (i + 1) rest
  in
  find 0 Opcode.all_rops

let mop_index (op : Opcode.mop) =
  match op with Ldq -> 0 | Ldbu -> 1 | Stq -> 2 | Stb -> 3

let bop_index (op : Opcode.bop) =
  match op with Beq -> 0 | Bne -> 1 | Blt -> 2 | Bge -> 3 | Ble -> 4
  | Bgt -> 5

let key = function
  | Rop (op, _, _, _) -> rop_index op
  | Ropi (op, _, _, _) -> 14 + rop_index op
  | Lda _ -> 28
  | Lui _ -> 29
  | Mem (op, _, _, _) -> 30 + mop_index op
  | Br (op, _, _) -> 34 + bop_index op
  | Jmp _ -> 40
  | Jal _ -> 41
  | Jr _ -> 42
  | Jalr _ -> 43
  | Dbr (op, _, _) -> 44 + bop_index op
  | Djmp _ -> 50
  | Codeword { op; _ } -> 51 + op
  | Nop -> 55
  | Halt -> 56

let num_keys = 57

let range a b =
  let rec go i acc = if i < a then acc else go (i - 1) (i :: acc) in
  go b []

let keys_of_class = function
  | Opcode.C_alu -> range 0 29
  | Opcode.C_load -> [ 30; 31 ]
  | Opcode.C_store -> [ 32; 33 ]
  | Opcode.C_branch -> range 34 39
  | Opcode.C_jump -> [ 40; 41 ]
  | Opcode.C_ijump -> [ 42; 43 ]
  | Opcode.C_dise -> range 44 50
  | Opcode.C_codeword -> range 51 54
  | Opcode.C_nop -> [ 55 ]
  | Opcode.C_sys -> [ 56 ]

let cls_of_key k =
  if k < 0 || k >= num_keys then invalid_arg "Insn.cls_of_key";
  match List.find_opt (fun c -> List.mem k (keys_of_class c)) Opcode.all_classes with
  | Some c -> c
  | None -> assert false

let example_of_key k =
  if k < 0 || k >= num_keys then invalid_arg "Insn.example_of_key";
  let r0 = Reg.zero in
  if k < 14 then Rop (List.nth Opcode.all_rops k, r0, r0, r0)
  else if k < 28 then Ropi (List.nth Opcode.all_rops (k - 14), r0, 0, r0)
  else
    match k with
    | 28 -> Lda (r0, 0, r0)
    | 29 -> Lui (0, r0)
    | 30 | 31 | 32 | 33 -> Mem (List.nth Opcode.all_mops (k - 30), r0, 0, r0)
    | 34 | 35 | 36 | 37 | 38 | 39 ->
      Br (List.nth Opcode.all_bops (k - 34), r0, Abs 0)
    | 40 -> Jmp (Abs 0)
    | 41 -> Jal (Abs 0)
    | 42 -> Jr r0
    | 43 -> Jalr (r0, r0)
    | 44 | 45 | 46 | 47 | 48 | 49 ->
      Dbr (List.nth Opcode.all_bops (k - 44), r0, 0)
    | 50 -> Djmp 0
    | 51 | 52 | 53 | 54 ->
      Codeword { op = k - 51; p1 = 0; p2 = 0; p3 = 0; tag = 0 }
    | 55 -> Nop
    | 56 -> Halt
    | _ -> assert false

let mnemonic_of_key k =
  match example_of_key k with
  | Rop (op, _, _, _) -> Opcode.rop_to_string op
  | Ropi (op, _, _, _) -> Opcode.rop_to_string op ^ "i"
  | Lda _ -> "lda"
  | Lui _ -> "lui"
  | Mem (op, _, _, _) -> Opcode.mop_to_string op
  | Br (op, _, _) -> Opcode.bop_to_string op
  | Jmp _ -> "jmp"
  | Jal _ -> "jal"
  | Jr _ -> "jr"
  | Jalr _ -> "jalr"
  | Dbr (op, _, _) -> "d" ^ Opcode.bop_to_string op
  | Djmp _ -> "djmp"
  | Codeword { op; _ } -> Printf.sprintf "cw%d" op
  | Nop -> "nop"
  | Halt -> "halt"

let map_target f = function
  | Br (op, r, t) -> Br (op, r, f t)
  | Jmp t -> Jmp (f t)
  | Jal t -> Jal (f t)
  | i -> i

let map_regs f = function
  | Rop (op, a, b, c) -> Rop (op, f a, f b, f c)
  | Ropi (op, a, v, c) -> Ropi (op, f a, v, f c)
  | Lda (a, v, c) -> Lda (f a, v, f c)
  | Lui (v, c) -> Lui (v, f c)
  | Mem (op, a, v, c) -> Mem (op, f a, v, f c)
  | Br (op, r, t) -> Br (op, f r, t)
  | Jr r -> Jr (f r)
  | Jalr (a, b) -> Jalr (f a, f b)
  | Dbr (op, r, off) -> Dbr (op, f r, off)
  | (Jmp _ | Jal _ | Djmp _ | Codeword _ | Nop | Halt) as i -> i

let equal (a : t) (b : t) = a = b

let pp_target ppf = function
  | Abs a -> Format.fprintf ppf "0x%x" a
  | Lab l -> Format.pp_print_string ppf l

let pp ppf i =
  let pr fmt = Format.fprintf ppf fmt in
  let reg = Reg.pp in
  match i with
  | Rop (op, a, b, c) ->
    pr "%s %a, %a, %a" (Opcode.rop_to_string op) reg a reg b reg c
  | Ropi (op, a, v, c) ->
    pr "%s %a, #%d, %a" (Opcode.rop_to_string op) reg a v reg c
  | Lda (base, off, dst) -> pr "lda %a, %d(%a)" reg dst off reg base
  | Lui (v, dst) -> pr "lui #%d, %a" v reg dst
  | Mem (op, base, off, data) ->
    pr "%s %a, %d(%a)" (Opcode.mop_to_string op) reg data off reg base
  | Br (op, r, t) ->
    pr "%s %a, %a" (Opcode.bop_to_string op) reg r pp_target t
  | Jmp t -> pr "jmp %a" pp_target t
  | Jal t -> pr "jal %a" pp_target t
  | Jr r -> pr "jr %a" reg r
  | Jalr (r, d) -> pr "jalr %a, %a" reg r reg d
  | Dbr (op, r, off) -> pr "d%s %a, @%d" (Opcode.bop_to_string op) reg r off
  | Djmp off -> pr "djmp @%d" off
  | Codeword { op; p1; p2; p3; tag } ->
    pr "cw%d %d, %d, %d, tag=%d" op p1 p2 p3 tag
  | Nop -> pr "nop"
  | Halt -> pr "halt"

let to_string i = Format.asprintf "%a" pp i
