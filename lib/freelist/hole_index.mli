(** A host-side index of an allocator's holes, kept next to the
    in-store free list so that placement can search flat arrays instead
    of chasing link words through the simulated store.

    Every hole's offset and size are held in address order, in sorted
    flat [int] arrays cut into leaves of at most {!leaf_cap} holes.  Each
    leaf carries its hole count and its largest size, so a search skips
    every leaf that cannot satisfy the request, and an update shifts the
    holes of one leaf only.  Searches and updates allocate nothing;
    capacity grows by doubling.

    A {e position} names a slot of one leaf.  Positions returned by a
    search or by {!locate} stay valid until the next {!insert} or
    {!remove}. *)

type t

val leaf_cap : int
(** Most holes a leaf holds. *)

val none : int
(** -1: no position, and no hole offset. *)

val create : unit -> t
(** An empty index. *)

val clear : t -> unit

val length : t -> int
(** Holes held. *)

(** {2 Placement searches}

    Each returns the position of the chosen hole, or {!none} when no
    hole has at least [needed] words. *)

val first_fit : t -> int -> int
(** The lowest-addressed sufficient hole. *)

val best_fit : t -> int -> int
(** The smallest sufficient hole, the lowest-addressed of equals. *)

val worst_fit : t -> int -> int
(** The largest hole, the lowest-addressed of equals. *)

val last_fit : t -> int -> int
(** The highest-addressed sufficient hole. *)

val rank : t -> int -> int
(** Holes below the given position in address order. *)

(** {2 Holes and neighbours} *)

val off : t -> int -> int
(** Offset of the hole at a position. *)

val size : t -> int -> int
(** Size of the hole at a position. *)

val locate : t -> int -> int
(** The position of the first hole at or above the given offset, or the
    end of the index: where a hole at that offset belongs. *)

val before : t -> int -> int
(** The position of the hole just below the given position; there must
    be one. *)

val off_before : t -> int -> int
(** Offset of the hole just below the given position, or {!none}. *)

val off_from : t -> int -> int
(** Offset of the first hole at or after the given position, or {!none};
    [off_from t (p + 1)] is the successor of the hole at [p]. *)

(** {2 Updates} *)

val insert : t -> int -> off:int -> size:int -> unit
(** Insert a hole at a position from {!locate}. *)

val remove : t -> int -> unit
(** Remove the hole at a position. *)

val replace : t -> int -> off:int -> size:int -> unit
(** Give the hole at a position a new offset and size, which must keep
    it between its neighbours in address order. *)

(** {2 Introspection for tests} *)

val holes : t -> (int * int) list
(** Every hole's offset and size, in address order. *)

val validate : t -> unit
(** Check the leaf structure: leaf counts within bounds and summing to
    {!length}, no empty leaf beside another leaf, any two neighbouring
    leaves holding more than half a leaf between them, offsets strictly
    ascending across leaves, and each leaf's recorded largest size equal
    to the largest of its holes.  Raises [Failure] describing the first
    violation. *)
