type kind =
  | Cond
  | Direct
  | Indirect
  | Return

type t = {
  perfect : bool;
  hist_mask : int;
  pht : Bytes.t;             (* 2-bit counters *)
  btb_tags : int array;
  btb_targets : int array;
  ras : int array;
  mutable ras_top : int;     (* number of valid entries, capped *)
  mutable history : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ?(hist_bits = 12) ?(btb_entries = 2048) ?(ras_entries = 16) () =
  let pht_size = 1 lsl hist_bits in
  {
    perfect = false;
    hist_mask = pht_size - 1;
    pht = Bytes.make pht_size '\002';  (* weakly taken *)
    btb_tags = Array.make btb_entries (-1);
    btb_targets = Array.make btb_entries 0;
    ras = Array.make ras_entries 0;
    ras_top = 0;
    history = 0;
    lookups = 0;
    mispredicts = 0;
  }

let perfect () =
  {
    perfect = true;
    hist_mask = 0;
    pht = Bytes.create 1;
    btb_tags = [| -1 |];
    btb_targets = [| 0 |];
    ras = [| 0 |];
    ras_top = 0;
    history = 0;
    lookups = 0;
    mispredicts = 0;
  }

let pht_index t pc = ((pc lsr 2) lxor t.history) land t.hist_mask

let predict_dir t pc = Char.code (Bytes.get t.pht (pht_index t pc)) >= 2

let train_dir t pc taken =
  let i = pht_index t pc in
  let c = Char.code (Bytes.get t.pht i) in
  let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set t.pht i (Char.chr c');
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land t.hist_mask

let btb_index t pc = (pc lsr 2) mod Array.length t.btb_tags

(* Does the BTB hold [target] for [pc]? (A tag miss is a wrong
   prediction.) *)
let btb_hits t pc target =
  let i = btb_index t pc in
  t.btb_tags.(i) = pc && t.btb_targets.(i) = target

let btb_train t pc target =
  let i = btb_index t pc in
  t.btb_tags.(i) <- pc;
  t.btb_targets.(i) <- target

let ras_push t addr =
  let n = Array.length t.ras in
  (* Shift-free circular push: overwrite oldest when full. *)
  if t.ras_top < n then begin
    t.ras.(t.ras_top) <- addr;
    t.ras_top <- t.ras_top + 1
  end
  else begin
    Array.blit t.ras 1 t.ras 0 (n - 1);
    t.ras.(n - 1) <- addr
  end

(* Pop the return address stack and compare the prediction with
   [target]; an empty stack predicts wrong. *)
let ras_pop_hits t target =
  if t.ras_top = 0 then false
  else begin
    t.ras_top <- t.ras_top - 1;
    t.ras.(t.ras_top) = target
  end

let record t outcome =
  t.lookups <- t.lookups + 1;
  (match outcome with
  | `Mispredict -> t.mispredicts <- t.mispredicts + 1
  | `Correct -> ());
  outcome

let on_branch t ~pc ~kind ~taken ~target ~fallthrough =
  ignore fallthrough;
  if t.perfect then record t `Correct
  else
    match kind with
    | Cond ->
      let predicted = predict_dir t pc in
      train_dir t pc taken;
      record t (if predicted = taken then `Correct else `Mispredict)
    | Direct -> record t `Correct
    | Indirect ->
      let hit = btb_hits t pc target in
      btb_train t pc target;
      record t (if hit then `Correct else `Mispredict)
    | Return -> record t (if ras_pop_hits t target then `Correct else `Mispredict)

let on_call t ~pc ~target ~fallthrough ~indirect =
  if t.perfect then record t `Correct
  else begin
    ras_push t fallthrough;
    if indirect then begin
      let hit = btb_hits t pc target in
      btb_train t pc target;
      record t (if hit then `Correct else `Mispredict)
    end
    else record t `Correct
  end

let lookups t = t.lookups
let mispredicts t = t.mispredicts

let mispredict_rate t =
  if t.lookups = 0 then 0.
  else float_of_int t.mispredicts /. float_of_int t.lookups
