(* Linear probing over two parallel arrays of power-of-two length.
   [min_int] marks an empty key slot; the value of an empty slot is
   always the absent value, so a probe that stops on an empty slot may
   read its value directly.  Keys are never deleted, which keeps probe
   chains intact without tombstones; keys whose value went back to
   absent are dropped when the table rehashes. *)

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

(* Rebuild with only the live bindings, doubling until they fill at
   most a quarter of the slots: a full table of live keys doubles. *)
let rehash t =
  let live = ref 0 in
  Array.iter (fun v -> if v <> t.absent then incr live) t.vals;
  let bits = ref (Sys.int_size - t.shift) in
  while 4 * !live > 1 lsl !bits do
    incr bits
  done;
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
