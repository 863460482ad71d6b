(* Leaves live in fixed-size physical blocks of two flat arrays; a
   small directory maps each leaf, in address order, to its block and
   carries its count and largest size.  [block] is a permutation of
   every physical block: entries past [leaves] are the spare ones, so
   splitting a leaf takes the first spare and dropping one returns its
   block there.  A position packs (leaf, slot) into one int, with the
   slot allowed to equal the leaf's count (an end position). *)

let leaf_bits = 6

let leaf_cap = 1 lsl leaf_bits

let half = leaf_cap / 2

let pos_bits = leaf_bits + 1

let slot_mask = (1 lsl pos_bits) - 1

let none = -1

type t = {
  mutable offs : int array;  (* block b's holes at [b * leaf_cap ..] *)
  mutable sizes : int array;
  mutable block : int array;  (* leaf -> physical block, spares past [leaves] *)
  mutable count : int array;  (* leaf -> holes *)
  mutable lmax : int array;  (* leaf -> largest size, 0 if empty *)
  mutable leaves : int;  (* at least 1; only a lone leaf may be empty *)
  mutable length : int;
}

let create () =
  {
    offs = Array.make leaf_cap 0;
    sizes = Array.make leaf_cap 0;
    block = [| 0 |];
    count = [| 0 |];
    lmax = [| 0 |];
    leaves = 1;
    length = 0;
  }

let clear t =
  t.leaves <- 1;
  t.count.(0) <- 0;
  t.lmax.(0) <- 0;
  t.length <- 0

let length t = t.length

let pos leaf slot = (leaf lsl pos_bits) lor slot

let leaf_of p = p lsr pos_bits

let slot_of p = p land slot_mask

(* Index of a leaf's first slot in [offs] and [sizes]. *)
let base t leaf = t.block.(leaf) lsl leaf_bits

let off t p = t.offs.(base t (leaf_of p) + slot_of p)

let size t p = t.sizes.(base t (leaf_of p) + slot_of p)

let last_off t leaf = t.offs.(base t leaf + t.count.(leaf) - 1)

let rank t p =
  let r = ref (slot_of p) in
  for leaf = 0 to leaf_of p - 1 do
    r := !r + t.count.(leaf)
  done;
  !r

let before t p =
  let leaf = leaf_of p and slot = slot_of p in
  if slot > 0 then p - 1 else pos (leaf - 1) (t.count.(leaf - 1) - 1)

let off_before t p =
  if slot_of p > 0 then t.offs.(base t (leaf_of p) + slot_of p - 1)
  else if leaf_of p > 0 then last_off t (leaf_of p - 1)
  else none

let off_from t p =
  let leaf = leaf_of p and slot = slot_of p in
  if slot < t.count.(leaf) then t.offs.(base t leaf + slot)
  else if leaf + 1 < t.leaves then t.offs.(base t (leaf + 1))
  else none

(* --- searches --- *)

let first_fit t needed =
  let leaf = ref 0 in
  while !leaf < t.leaves && t.lmax.(!leaf) < needed do
    incr leaf
  done;
  if !leaf = t.leaves then none
  else begin
    let b = base t !leaf and slot = ref 0 in
    while t.sizes.(b + !slot) < needed do
      incr slot
    done;
    pos !leaf !slot
  end

(* A hole of exactly [needed] words ends the search: nothing later can
   be smaller, and it is the lowest of its size. *)
let best_fit t needed =
  let best = ref none and best_size = ref max_int and leaf = ref 0 in
  while !leaf < t.leaves && !best_size > needed do
    if t.lmax.(!leaf) >= needed then begin
      let b = base t !leaf and n = t.count.(!leaf) and slot = ref 0 in
      while !slot < n && !best_size > needed do
        let s = t.sizes.(b + !slot) in
        if s >= needed && s < !best_size then begin
          best := pos !leaf !slot;
          best_size := s
        end;
        incr slot
      done
    end;
    incr leaf
  done;
  !best

let worst_fit t needed =
  let leaf = ref 0 in
  for l = 1 to t.leaves - 1 do
    if t.lmax.(l) > t.lmax.(!leaf) then leaf := l
  done;
  let largest = t.lmax.(!leaf) in
  if largest < needed || t.count.(!leaf) = 0 then none
  else begin
    let b = base t !leaf and slot = ref 0 in
    while t.sizes.(b + !slot) < largest do
      incr slot
    done;
    pos !leaf !slot
  end

let last_fit t needed =
  let leaf = ref (t.leaves - 1) in
  while !leaf >= 0 && t.lmax.(!leaf) < needed do
    decr leaf
  done;
  if !leaf < 0 then none
  else begin
    let b = base t !leaf and slot = ref (t.count.(!leaf) - 1) in
    while t.sizes.(b + !slot) < needed do
      decr slot
    done;
    pos !leaf !slot
  end

(* A binary search over the leaves, then a scan of one leaf: its exit
   mispredicts once, where a binary search's every step may. *)
let locate t off =
  (* The first leaf whose last hole is not below [off], else the last. *)
  let lo = ref 0 and hi = ref (t.leaves - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if last_off t mid >= off then hi := mid else lo := mid + 1
  done;
  let b = base t !lo and n = t.count.(!lo) and slot = ref 0 in
  while !slot < n && t.offs.(b + !slot) < off do
    incr slot
  done;
  pos !lo !slot

(* --- updates --- *)

let refresh_max t leaf =
  let b = base t leaf and m = ref 0 in
  for j = b to b + t.count.(leaf) - 1 do
    if t.sizes.(j) > !m then m := t.sizes.(j)
  done;
  t.lmax.(leaf) <- !m

(* Copies element by element: [Array.blit] into a major-heap array
   pays a write barrier per word, which typed [int array] stores skip. *)
let grown (a : int array) n ~fill =
  let a' = Array.make n fill in
  for i = 0 to Array.length a - 1 do
    a'.(i) <- a.(i)
  done;
  a'

let grow t =
  let blocks = Array.length t.block in
  t.offs <- grown t.offs (2 * blocks * leaf_cap) ~fill:0;
  t.sizes <- grown t.sizes (2 * blocks * leaf_cap) ~fill:0;
  let block = grown t.block (2 * blocks) ~fill:0 in
  for i = blocks to (2 * blocks) - 1 do
    block.(i) <- i
  done;
  t.block <- block;
  t.count <- grown t.count (2 * blocks) ~fill:0;
  t.lmax <- grown t.lmax (2 * blocks) ~fill:0

(* Open an empty leaf at [leaf] on the first spare block. *)
let open_leaf t leaf =
  if t.leaves = Array.length t.block then grow t;
  let spare = t.block.(t.leaves) in
  for l = t.leaves downto leaf + 1 do
    t.block.(l) <- t.block.(l - 1);
    t.count.(l) <- t.count.(l - 1);
    t.lmax.(l) <- t.lmax.(l - 1)
  done;
  t.block.(leaf) <- spare;
  t.count.(leaf) <- 0;
  t.lmax.(leaf) <- 0;
  t.leaves <- t.leaves + 1

(* Close the empty leaf [leaf], returning its block to the spares. *)
let drop_leaf t leaf =
  let spare = t.block.(leaf) in
  for l = leaf to t.leaves - 2 do
    t.block.(l) <- t.block.(l + 1);
    t.count.(l) <- t.count.(l + 1);
    t.lmax.(l) <- t.lmax.(l + 1)
  done;
  t.leaves <- t.leaves - 1;
  t.block.(t.leaves) <- spare

(* Append the holes of leaf [leaf + 1] to leaf [leaf]. *)
let merge_next t leaf =
  let dst = base t leaf + t.count.(leaf) and src = base t (leaf + 1) in
  for j = 0 to t.count.(leaf + 1) - 1 do
    t.offs.(dst + j) <- t.offs.(src + j);
    t.sizes.(dst + j) <- t.sizes.(src + j)
  done;
  t.count.(leaf) <- t.count.(leaf) + t.count.(leaf + 1);
  t.lmax.(leaf) <- max t.lmax.(leaf) t.lmax.(leaf + 1);
  t.count.(leaf + 1) <- 0;
  drop_leaf t (leaf + 1)

(* Move the upper half of the full leaf [leaf] to a new leaf after it. *)
let split t leaf =
  open_leaf t (leaf + 1);
  let src = base t leaf + half and dst = base t (leaf + 1) in
  for j = 0 to half - 1 do
    t.offs.(dst + j) <- t.offs.(src + j);
    t.sizes.(dst + j) <- t.sizes.(src + j)
  done;
  t.count.(leaf) <- half;
  t.count.(leaf + 1) <- half;
  refresh_max t leaf;
  refresh_max t (leaf + 1)

let insert t p ~off ~size =
  let p =
    let leaf = leaf_of p and slot = slot_of p in
    if t.count.(leaf) < leaf_cap then p
    else begin
      split t leaf;
      if slot > half then pos (leaf + 1) (slot - half) else p
    end
  in
  let leaf = leaf_of p and slot = slot_of p in
  let b = base t leaf and n = t.count.(leaf) in
  for j = b + n downto b + slot + 1 do
    t.offs.(j) <- t.offs.(j - 1);
    t.sizes.(j) <- t.sizes.(j - 1)
  done;
  t.offs.(b + slot) <- off;
  t.sizes.(b + slot) <- size;
  t.count.(leaf) <- n + 1;
  if size > t.lmax.(leaf) then t.lmax.(leaf) <- size;
  t.length <- t.length + 1

(* Keep any two neighbouring leaves above half a leaf between them, and
   no leaf empty unless it is the only one. *)
let rebalance t leaf =
  if leaf + 1 < t.leaves && t.count.(leaf) + t.count.(leaf + 1) <= half then merge_next t leaf
  else if leaf > 0 && t.count.(leaf - 1) + t.count.(leaf) <= half then merge_next t (leaf - 1)
  else if t.count.(leaf) = 0 && t.leaves > 1 then drop_leaf t leaf

let remove t p =
  let leaf = leaf_of p and slot = slot_of p in
  let b = base t leaf and n = t.count.(leaf) in
  let s = t.sizes.(b + slot) in
  for j = b + slot to b + n - 2 do
    t.offs.(j) <- t.offs.(j + 1);
    t.sizes.(j) <- t.sizes.(j + 1)
  done;
  t.count.(leaf) <- n - 1;
  t.length <- t.length - 1;
  if s = t.lmax.(leaf) then refresh_max t leaf;
  rebalance t leaf

let replace t p ~off ~size =
  let leaf = leaf_of p in
  let i = base t leaf + slot_of p in
  let old = t.sizes.(i) in
  t.offs.(i) <- off;
  t.sizes.(i) <- size;
  if size > t.lmax.(leaf) then t.lmax.(leaf) <- size
  else if old = t.lmax.(leaf) && size < old then refresh_max t leaf

(* --- introspection --- *)

let holes t =
  List.concat
    (List.init t.leaves (fun leaf ->
         List.init t.count.(leaf) (fun slot ->
             let p = pos leaf slot in
             (off t p, size t p))))

(* lint: allow L4 — validate below is a documented test-facing checker that raises Failure *)
let fail fmt = Printf.ksprintf failwith fmt

let validate t =
  if t.leaves < 1 then fail "hole index: %d leaves" t.leaves;
  let total = ref 0 and prev = ref none in
  for leaf = 0 to t.leaves - 1 do
    let n = t.count.(leaf) in
    if n > leaf_cap || (n = 0 && t.leaves > 1) then
      fail "hole index: leaf %d holds %d holes" leaf n;
    if leaf > 0 && t.count.(leaf - 1) + n <= half then
      fail "hole index: leaves %d and %d hold only %d holes" (leaf - 1) leaf
        (t.count.(leaf - 1) + n);
    let m = ref 0 in
    for slot = 0 to n - 1 do
      let p = pos leaf slot in
      if off t p <= !prev then fail "hole index: offset %d not above %d" (off t p) !prev;
      prev := off t p;
      m := max !m (size t p)
    done;
    if !m <> t.lmax.(leaf) then
      fail "hole index: leaf %d records largest %d, holds %d" leaf t.lmax.(leaf) !m;
    total := !total + n
  done;
  if !total <> t.length then fail "hole index: leaves hold %d holes, length %d" !total t.length
