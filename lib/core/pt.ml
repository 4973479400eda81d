module I = Dise_isa.Insn

type t = {
  capacity : int;
  active : int array;        (* active pattern count per opcode key *)
  resident : int array;      (* resident pattern count per opcode key *)
  last_use : int array;      (* LRU timestamp per opcode key *)
  mutable occupancy : int;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  total_active : int;
}

let create ~capacity prodset =
  let active = Array.make I.num_keys 0 in
  for key = 0 to I.num_keys - 1 do
    active.(key) <- List.length (Prodset.patterns_for_key prodset key)
  done;
  {
    capacity;
    active;
    resident = Array.make I.num_keys 0;
    last_use = Array.make I.num_keys 0;
    occupancy = 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    total_active = Array.fold_left ( + ) 0 active;
  }

(* Evict the LRU resident opcode group to make room. *)
let evict_one t =
  let victim = ref (-1) and oldest = ref max_int in
  for key = 0 to I.num_keys - 1 do
    if t.resident.(key) > 0 && t.last_use.(key) < !oldest then begin
      oldest := t.last_use.(key);
      victim := key
    end
  done;
  if !victim >= 0 then begin
    t.occupancy <- t.occupancy - t.resident.(!victim);
    t.resident.(!victim) <- 0
  end

let access t ~key =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let need = t.active.(key) in
  if need = 0 || t.resident.(key) = need then begin
    if need > 0 then t.last_use.(key) <- t.clock;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Fill all patterns for this opcode, evicting whole opcode groups
       until they fit (a group larger than the PT is truncated to
       capacity; it will simply re-miss, as real hardware would
       thrash). *)
    let fill = Int.min need t.capacity in
    t.occupancy <- t.occupancy - t.resident.(key);
    t.resident.(key) <- 0;
    while t.occupancy + fill > t.capacity do
      evict_one t
    done;
    t.resident.(key) <- fill;
    t.occupancy <- t.occupancy + fill;
    t.last_use.(key) <- t.clock;
    `Miss fill
  end

let invalidate t =
  Array.fill t.resident 0 (Array.length t.resident) 0;
  t.occupancy <- 0

let resident_patterns t = t.occupancy
let accesses t = t.accesses
let misses t = t.misses
let active_patterns t = t.total_active
