(* Linear probing over two parallel arrays of power-of-two length.
   [min_int] marks an empty key slot; the value of an empty slot is
   always the absent value, so a probe that stops on an empty slot may
   read its value directly.  Removing a key only stores the absent
   value, which keeps probe chains intact without tombstones; keys
   whose value went back to absent are dropped when the table
   rehashes. *)

let empty = min_int

let initial_bits = 4

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* Sys.int_size - log2 (capacity) *)
  mutable used : int;  (* key slots in use, live or absent-valued *)
  absent : int;
}

let create ~absent =
  let n = 1 lsl initial_bits in
  {
    keys = Array.make n empty;
    vals = Array.make n absent;
    shift = Sys.int_size - initial_bits;
    used = 0;
    absent;
  }

let capacity t = Array.length t.keys

(* Fibonacci hashing: the top bits of the key times an odd constant
   close to 2^63 / phi, which spreads dense page numbers and packed
   [job lsl 32 lor page] keys alike. *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* The slot holding [k], or the empty slot where it would go. *)
let slot t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while keys.(!i) <> k && keys.(!i) <> empty do
    i := (!i + 1) land mask
  done;
  !i

let find t k = t.vals.(slot t k)

(* Empty slot [i] by backward shift: each later key of the cluster whose
   home is not cyclically in [(i, j]] moves back into the hole, so every
   key stays reachable from its home without tombstones. *)
let delete_at t i =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while keys.(!j) <> empty do
    let h = home t keys.(!j) in
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      keys.(!hole) <- keys.(!j);
      vals.(!hole) <- vals.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- empty;
  vals.(!hole) <- t.absent

(* Drop the keys whose value is absent.  When the live bindings fill at
   most a quarter of the slots that is done in place, allocating
   nothing; otherwise the table is rebuilt at double size (or more)
   with only the live bindings. *)
let rehash t =
  let live = ref 0 in
  for i = 0 to Array.length t.vals - 1 do
    if t.vals.(i) <> t.absent then incr live
  done;
  let bits = ref (Sys.int_size - t.shift) in
  while 4 * !live > 1 lsl !bits do
    incr bits
  done;
  if !bits = Sys.int_size - t.shift then begin
    let i = ref 0 in
    while !i < Array.length t.keys do
      (* a key shifted back into slot [i] is examined in its turn *)
      if t.keys.(!i) <> empty && t.vals.(!i) = t.absent then delete_at t !i else incr i
    done;
    t.used <- !live
  end
  else begin
    let old_keys = t.keys and old_vals = t.vals in
    t.keys <- Array.make (1 lsl !bits) empty;
    t.vals <- Array.make (1 lsl !bits) t.absent;
    t.shift <- Sys.int_size - !bits;
    t.used <- !live;
    Array.iteri
      (fun j k ->
        let v = old_vals.(j) in
        if v <> t.absent then begin
          let i = slot t k in
          t.keys.(i) <- k;
          t.vals.(i) <- v
        end)
      old_keys
  end

let bindings t =
  let n = ref 0 in
  for i = 0 to Array.length t.vals - 1 do
    if t.vals.(i) <> t.absent then incr n
  done;
  let out = Array.make !n (0, 0) in
  n := 0;
  for i = 0 to Array.length t.vals - 1 do
    if t.vals.(i) <> t.absent then begin
      out.(!n) <- (t.keys.(i), t.vals.(i));
      incr n
    end
  done;
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) out;
  out

let rec set t k v =
  if k = empty then invalid_arg "Flat_table.set: min_int is reserved for empty slots";
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else if v <> t.absent then begin
    if 2 * (t.used + 1) > Array.length t.keys then begin
      rehash t;
      set t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.used <- t.used + 1
    end
  end

let remove t k = set t k t.absent
