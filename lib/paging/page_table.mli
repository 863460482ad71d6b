(** A page table: the "table of block addresses" of the paper's Fig. 2.

    Maps page numbers of one linear name space to the page frames
    currently holding them, and records the use / modification sensor
    bits that the paper lists under "Special Hardware Facilities (iv)".
    A page may also be locked into working storage (the MULTICS
    keep-permanently-resident directive). *)

type t

val create : pages:int -> t
(** A table for a name space of [pages] pages, all initially absent. *)

val pages : t -> int

val frame_of : t -> int -> int option
(** [frame_of t page] is the frame holding [page], if resident.
    Raises [Invalid_argument] if [page] is outside the name space —
    the paper's bound-violation trap. *)

val install : t -> page:int -> frame:int -> unit
(** Make [page] resident in [frame], clearing its sensor bits. *)

val evict : t -> page:int -> unit
(** Mark [page] absent.  Raises [Invalid_argument] if it was not
    resident or is locked. *)

val mark_used : t -> page:int -> unit

val mark_modified : t -> page:int -> unit

val clear_used : t -> page:int -> unit

val used : t -> page:int -> bool

val modified : t -> page:int -> bool

val lock : t -> page:int -> unit
(** Pin a resident page: {!evict} on it becomes an error, so replacement
    must never choose it. *)

val unlock : t -> page:int -> unit

val locked : t -> page:int -> bool

val resident_count : t -> int

val locked_count : t -> int
(** Pages locked now: a {!lock} or {!unlock} that changes nothing leaves
    the count alone. *)
