type t = { slots : int array; mutable size : int }

let create ~capacity =
  assert (capacity >= 0);
  { slots = Array.make capacity 0; size = 0 }

let size t = t.size

let is_full t = t.size = Array.length t.slots

let slots t = t.slots

let filter t ~keep =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if keep t.slots.(i) then incr n
  done;
  if !n = Array.length t.slots then t.slots
  else begin
    let kept = Array.make !n 0 in
    n := 0;
    for i = 0 to t.size - 1 do
      let k = t.slots.(i) in
      if keep k then begin
        kept.(!n) <- k;
        incr n
      end
    done;
    kept
  end

(* Index of the first of [a.(0 .. len - 1)] that is >= [k], or [len]. *)
let search (a : int array) ~len k =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let ascending_mem (a : int array) k =
  let i = search a ~len:(Array.length a) k in
  i < Array.length a && a.(i) = k

let lower_bound t k = search t.slots ~len:t.size k

let mem t k =
  let i = lower_bound t k in
  i < t.size && t.slots.(i) = k

let add t k =
  let i = lower_bound t k in
  if i < t.size && t.slots.(i) = k then invalid_arg "Resident_slots.add: already a member";
  if is_full t then invalid_arg "Resident_slots.add: full";
  Array.blit t.slots i t.slots (i + 1) (t.size - i);
  t.slots.(i) <- k;
  t.size <- t.size + 1

let remove t k =
  let i = lower_bound t k in
  if i >= t.size || t.slots.(i) <> k then invalid_arg "Resident_slots.remove: not a member";
  Array.blit t.slots (i + 1) t.slots i (t.size - i - 1);
  t.size <- t.size - 1
