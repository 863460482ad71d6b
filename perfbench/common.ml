(* Shared machinery of the benchmark harness: host clock, the cell
   contract every workload implements, and the small statistics the
   report needs. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type size = Full | Tiny

let size_of_string = function
  | "full" -> Some Full
  | "tiny" -> Some Tiny
  | _ -> None

let size_name = function Full -> "full" | Tiny -> "tiny"

(* OCaml words allocated so far: every minor allocation plus every
   direct major one (major minus promoted words, so a promoted word is
   not counted twice).  Gc.minor_words and Gc.counters are exact at any
   instant, unlike Gc.quick_stat, whose minor count only moves at a
   minor collection; the total is a function of the code alone. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* One execution of a cell.  [ns] and [gc_words] cover only the engine
   part (building the engines and running them); checks and digests run
   outside it. *)
type outcome = {
  ops : int;  (** simulated operations performed *)
  ns : int;  (** host time of the engine part *)
  gc_words : float;  (** words allocated by the engine part, if measured *)
  stats : string;  (** every simulated statistic, rendered canonically *)
  errors : string list;  (** invariant checks of this execution *)
  oracle : unit -> string list;  (** reference checks, run once per cell *)
}

type cell = {
  id : string;  (** stable name, the key of the committed digests *)
  exec : gc:bool -> outcome;
}

(* [engine ~gc f] runs [f] and returns its result with the host ns it
   took and, when [gc], the words it allocated. *)
let engine ~gc f =
  let w0 = if gc then alloc_words () else 0. in
  let t0 = now_ns () in
  let v = f () in
  let ns = now_ns () - t0 in
  let words = if gc then alloc_words () -. w0 else 0. in
  (v, ns, words)

let no_oracle () = []

(* --- statistics --- *)

(* Nearest-rank percentile of [a] (sorted in place), 0 <= p <= 100. *)
let percentile a ~zero p =
  let n = Array.length a in
  if n = 0 then zero
  else begin
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

(* [num /. den], 0 when nothing was counted. *)
let ratio num den = if den > 0. then num /. den else 0.

(* Growable int buffer for per-operation samples. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* A reported metric: name, value, unit. *)
type metric = string * float * string
