type way = {
  mutable tag : int;  (* -1 = invalid *)
  mutable lru : int;
}

type t = {
  size_bytes : int;
  line_bytes : int;
  line_shift : int;
  n_sets : int;
  assoc : int;
  sets : way array array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ~size_bytes ~assoc ~line_bytes =
  if size_bytes <= 0 || assoc <= 0 || line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive parameter";
  if line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache.create: line size must be a power of two";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line";
  let n_sets = size_bytes / (assoc * line_bytes) in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    size_bytes;
    line_bytes;
    line_shift = log2 line_bytes;
    n_sets;
    assoc;
    sets =
      Array.init n_sets (fun _ ->
          Array.init assoc (fun _ -> { tag = -1; lru = 0 }));
    clock = 0;
    accesses = 0;
    misses = 0;
  }

(* One loop, no closure and no option: the hit scan and the victim
   choice (first invalid way, else least recently used) are both plain
   index walks over the set. *)
let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let tag = addr lsr t.line_shift in
  let set = t.sets.(tag land (t.n_sets - 1)) in
  let assoc = t.assoc in
  let i = ref 0 in
  while !i < assoc && set.(!i).tag <> tag do
    incr i
  done;
  if !i < assoc then begin
    set.(!i).lru <- t.clock;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref set.(0) in
    for k = 1 to assoc - 1 do
      let w = set.(k) in
      let v = !victim in
      if w.tag = -1 && v.tag <> -1 then victim := w
      else if w.tag <> -1 && v.tag <> -1 && w.lru < v.lru then victim := w
    done;
    let v = !victim in
    v.tag <- tag;
    v.lru <- t.clock;
    `Miss
  end

let probe t addr =
  let tag = addr lsr t.line_shift in
  Array.exists (fun w -> w.tag = tag) t.sets.(tag land (t.n_sets - 1))

let line_bytes t = t.line_bytes
let line_of t addr = addr lsr t.line_shift
let size_bytes t = t.size_bytes
let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.
  else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

let invalidate t =
  Array.iter
    (fun set ->
      Array.iter
        (fun w ->
          w.tag <- -1;
          w.lru <- 0)
        set)
    t.sets
