(** Boundary-tag block encoding inside simulated memory.

    A block of [size] words (size includes both tags) is laid out as:

    {v
      +0          header: (size lsl 1) lor allocated-bit
      +1          free blocks: offset of next free block (-1 = none)
      +2          free blocks: offset of previous free block (-1 = none)
      ...         payload (allocated blocks: words +1 .. size-2)
      +size-1     footer: same encoding as header
    v}

    The footer lets [free] find the preceding block for coalescing —
    the "boundary tag" technique.  All offsets are region-relative word
    offsets; the minimum representable block is {!min_block} words. *)

val min_block : int
(** 4: header + two link words + footer. *)

val overhead : int
(** 2: tag words unavailable to the payload of an allocated block. *)

val null : int
(** -1, the nil link. *)

(** {2 Tag words}

    A tag word is read and written as a plain [int]; these decode it. *)

val size : int -> int
(** Block size (total words) recorded in a tag word. *)

val allocated : int -> bool
(** The allocated bit of a tag word. *)

val header : Memstore.Physical.t -> base:int -> int -> int
(** The header tag word of the block at region offset [off]. *)

val footer : Memstore.Physical.t -> base:int -> int -> int
(** [footer mem ~base off] reads the tag word of the block {e ending}
    just before region offset [off] (i.e. the word at [off - 1]). *)

val write_tags :
  Memstore.Physical.t -> base:int -> int -> size:int -> allocated:bool -> unit
(** Write both header and footer of the block at region offset. *)

(** {2 Free-list links} *)

val read_next : Memstore.Physical.t -> base:int -> int -> int

val read_prev : Memstore.Physical.t -> base:int -> int -> int

val write_next : Memstore.Physical.t -> base:int -> int -> int -> unit

val write_prev : Memstore.Physical.t -> base:int -> int -> int -> unit
