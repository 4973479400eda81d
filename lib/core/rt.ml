type way = {
  mutable tag : int;  (* (rsid lsl 12) lor block index; -1 = invalid *)
  mutable lru : int;
}

type t = {
  perfect : bool;
  n_sets : int;
  assoc : int;
  entries_per_block : int;
  index_mask : int;
      (* n_sets - 1 when n_sets is a power of two (the common case),
         letting [set_index] mask instead of divide; -1 selects the
         general modulus. Identical indices either way. *)
  blocks_for_len : int array;
      (* len -> ceil(len / entries_per_block), precomputed at
         construction for every length up to [max_precomputed_len] so
         the access path never divides. *)
  sets : way array array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable resident : int;
}

let max_precomputed_len = 256

let precompute_blocks epb =
  Array.init (max_precomputed_len + 1) (fun len -> (len + epb - 1) / epb)

let create ?(entries_per_block = 1) ~entries ~assoc () =
  if entries <= 0 || assoc <= 0 || entries_per_block <= 0 then
    invalid_arg "Rt.create: non-positive parameter";
  if entries mod (assoc * entries_per_block) <> 0 then
    invalid_arg "Rt.create: entries not divisible by assoc * block";
  let n_sets = entries / (assoc * entries_per_block) in
  {
    perfect = false;
    n_sets;
    assoc;
    entries_per_block;
    index_mask = (if n_sets land (n_sets - 1) = 0 then n_sets - 1 else -1);
    blocks_for_len = precompute_blocks entries_per_block;
    sets =
      Array.init n_sets (fun _ ->
          Array.init assoc (fun _ -> { tag = -1; lru = 0 }));
    clock = 0;
    accesses = 0;
    misses = 0;
    resident = 0;
  }

let perfect () =
  {
    perfect = true;
    n_sets = 0;
    assoc = 0;
    entries_per_block = 1;
    index_mask = -1;
    blocks_for_len = [||];
    sets = [||];
    clock = 0;
    accesses = 0;
    misses = 0;
    resident = 0;
  }

let block_tag ~rsid ~blk = (rsid lsl 12) lor blk

(* A multiplicative hash spreads sequence ids across sets. The index
   is taken from the product's high bits: [n_sets] is typically a power
   of two, and a low-bits modulus would discard the sequence-id part of
   the tag (which lives above bit 12). *)
let set_index t tag =
  let h = tag * 0x9E3779B1 land max_int in
  let h = h lsr 16 in
  if t.index_mask >= 0 then h land t.index_mask else h mod t.n_sets

(* Refresh [tag]'s way if resident; [false] on a miss. *)
let touch t tag =
  let set = t.sets.(set_index t tag) in
  let rec go i =
    if i >= t.assoc then false
    else if set.(i).tag = tag then begin
      set.(i).lru <- t.clock;
      true
    end
    else go (i + 1)
  in
  go 0

let fill t tag =
  let set = t.sets.(set_index t tag) in
  (* Reuse an invalid way, else evict LRU. *)
  let victim = ref set.(0) in
  for k = 1 to Array.length set - 1 do
    let w = set.(k) and v = !victim in
    if w.tag = -1 && v.tag <> -1 then victim := w
    else if w.tag <> -1 && v.tag <> -1 && w.lru < v.lru then victim := w
  done;
  let v = !victim in
  if v.tag = -1 then t.resident <- t.resident + 1;
  v.tag <- tag;
  v.lru <- t.clock

let blocks_of_len t len =
  if len <= max_precomputed_len && not t.perfect then
    Array.unsafe_get t.blocks_for_len len
  else (len + t.entries_per_block - 1) / t.entries_per_block

let access t ~rsid ~len =
  t.accesses <- t.accesses + 1;
  if t.perfect then `Hit
  else begin
    t.clock <- t.clock + 1;
    let blocks = blocks_of_len t (Int.max 1 len) in
    let all_hit = ref true in
    for blk = 0 to blocks - 1 do
      if not (touch t (block_tag ~rsid ~blk)) then all_hit := false
    done;
    if !all_hit then `Hit
    else begin
      t.misses <- t.misses + 1;
      for blk = 0 to blocks - 1 do
        let tag = block_tag ~rsid ~blk in
        if not (touch t tag) then fill t tag
      done;
      `Miss
    end
  end

let invalidate t =
  Array.iter
    (fun set ->
      Array.iter
        (fun w ->
          w.tag <- -1;
          w.lru <- 0)
        set)
    t.sets;
  t.resident <- 0

let accesses t = t.accesses
let misses t = t.misses
let occupancy t = t.resident
let capacity_blocks t = t.n_sets * t.assoc
let is_perfect t = t.perfect
let miss_rate t =
  if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses
