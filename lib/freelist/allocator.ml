type t = {
  mem : Memstore.Physical.t;
  base : int;
  len : int;
  policy : Policy.t;
  index : Hole_index.t option;  (* every hole; none under next fit or below [index_words] *)
  mutable free_head : int;  (* region-relative offset, Block.null if none *)
  mutable rover : int;  (* next-fit resume point *)
  mutable live_words : int;  (* sum of payload words of live blocks *)
  mutable live_blocks : int;
  mutable failures : int;
  mutable examined : int;  (* free-list nodes looked at by the current search *)
  searches : Metrics.Stats.t;
  obs : Obs.Sink.t;
  tracing : bool;
  clock : Sim.Clock.t option;  (* event timestamps; operation count if absent *)
  mutable ops : int;
}

let null = Block.null

(* Regions of fewer words walk their free list, as next fit does.  Their
   lists hold a handful of holes, and upkeep of an index costs more than
   the short walk it saves: on perfbench's freelist_churn the index path
   is slower per operation on 1K-4K-word stores and faster from 16K
   words up, increasingly so with size. *)
let index_words = 8192

type spec = { s_base : int; s_len : int; s_policy : Policy.t }

let create ?(obs = Obs.Sink.null) ?clock mem ~base ~len ~policy =
  assert (len >= Block.min_block);
  assert (base >= 0 && base + len <= Memstore.Physical.size mem);
  let index =
    match policy with
    | Policy.Next_fit -> None
    | Policy.First_fit | Policy.Best_fit | Policy.Worst_fit | Policy.Two_ends _ ->
      if len < index_words then None
      else begin
        let ix = Hole_index.create () in
        Hole_index.insert ix (Hole_index.locate ix 0) ~off:0 ~size:len;
        Some ix
      end
  in
  let t =
    {
      mem;
      base;
      len;
      policy;
      index;
      free_head = 0;
      rover = null;
      live_words = 0;
      live_blocks = 0;
      failures = 0;
      examined = 0;
      searches = Metrics.Stats.create ();
      obs;
      tracing = Obs.Sink.is_active obs;
      clock;
      ops = 0;
    }
  in
  Block.write_tags mem ~base 0 ~size:len ~allocated:false;
  Block.write_next mem ~base 0 null;
  Block.write_prev mem ~base 0 null;
  t

let build ?obs ?clock mem spec =
  create ?obs ?clock mem ~base:spec.s_base ~len:spec.s_len ~policy:spec.s_policy

let emit t kind =
  let t_us = match t.clock with Some c -> Sim.Clock.now c | None -> t.ops in
  Obs.Sink.emit t.obs (Obs.Event.make ~t_us kind)

let policy t = t.policy

let capacity t = t.len

let header t off = Block.header t.mem ~base:t.base off

let write_tags t off ~size ~allocated = Block.write_tags t.mem ~base:t.base off ~size ~allocated

let next_free t off = Block.read_next t.mem ~base:t.base off

let prev_free t off = Block.read_prev t.mem ~base:t.base off

let set_next t off v = Block.write_next t.mem ~base:t.base off v

let set_prev t off v = Block.write_prev t.mem ~base:t.base off v

(* Unthread a node whose list neighbours are [prev] and [next]. *)
let unlink_between t ~prev ~next =
  if prev = null then t.free_head <- next else set_next t prev next;
  if next <> null then set_prev t next prev

(* Thread node [off] between list nodes [prev] and [next] ([null] at
   the list's ends). *)
let link t off ~prev ~next =
  set_next t off next;
  set_prev t off prev;
  if prev = null then t.free_head <- off else set_next t prev off;
  if next <> null then set_prev t next off

(* Mark the [size] words at [off] allocated and account for them. *)
let grant t off size =
  write_tags t off ~size ~allocated:true;
  t.live_words <- t.live_words + size - Block.overhead;
  t.live_blocks <- t.live_blocks + 1;
  if t.tracing then emit t (Alloc { addr = t.base + off + 1; size = size - Block.overhead });
  Some (t.base + off + 1)

let refuse t =
  t.failures <- t.failures + 1;
  None

let split_event t off ~needed ~remainder =
  if t.tracing then emit t (Split { addr = t.base + off; size = needed; remainder })

(* --- Next fit and small regions: the in-store list, walked --- *)

let unlink t off =
  let next = next_free t off and prev = prev_free t off in
  unlink_between t ~prev ~next;
  if t.rover = off then t.rover <- next

(* Replace node [off] by node [off'] at the same list position; used when
   splitting leaves the remainder, or coalescing leaves the merged block,
   where the hole's links can be reused in address order.  The rover is
   the caller's to move. *)
let replace_node t off off' = link t off' ~prev:(prev_free t off) ~next:(next_free t off)

(* The nearest free block below region offset [off], found by walking
   the footers down: the predecessor in address order of a block placed
   at [off].  [null] if every block below is allocated. *)
let rec hole_below t off =
  if off = 0 then null
  else begin
    let w = Block.footer t.mem ~base:t.base off in
    let below = off - Block.size w in
    if Block.allocated w then hole_below t below else below
  end

(* Placement scans.  Each walks the list from [off], adds every node it
   looks at to [t.examined] and returns the chosen hole, or [null]. *)

(* The first hole covering [needed]. *)
let rec first_fit t off needed =
  if off = null then null
  else begin
    t.examined <- t.examined + 1;
    if Block.size (header t off) >= needed then off else first_fit t (next_free t off) needed
  end

(* First fit from the rover [start] to the list's end, then, [wrapped],
   from the head up to [start]. *)
let rec next_fit t off needed ~start ~wrapped =
  if off = null then
    if wrapped then null else next_fit t t.free_head needed ~start ~wrapped:true
  else if wrapped && off >= start then null
  else begin
    t.examined <- t.examined + 1;
    if Block.size (header t off) >= needed then off
    else next_fit t (next_free t off) needed ~start ~wrapped
  end

(* The smallest sufficient hole, the lowest of equals. *)
let rec best_fit t off needed ~best ~best_size =
  if off = null then best
  else begin
    t.examined <- t.examined + 1;
    let s = Block.size (header t off) in
    if s >= needed && s < best_size then best_fit t (next_free t off) needed ~best:off ~best_size:s
    else best_fit t (next_free t off) needed ~best ~best_size
  end

(* The largest sufficient hole, the lowest of equals. *)
let rec worst_fit t off needed ~worst ~worst_size =
  if off = null then worst
  else begin
    t.examined <- t.examined + 1;
    let s = Block.size (header t off) in
    if s >= needed && s > worst_size then
      worst_fit t (next_free t off) needed ~worst:off ~worst_size:s
    else worst_fit t (next_free t off) needed ~worst ~worst_size
  end

(* The highest-addressed sufficient hole. *)
let rec last_fit t off needed ~last =
  if off = null then last
  else begin
    t.examined <- t.examined + 1;
    let last = if Block.size (header t off) >= needed then off else last in
    last_fit t (next_free t off) needed ~last
  end

(* Two-ends placement takes large requests from the high end of the
   highest sufficient hole. *)
let take_high t request =
  match t.policy with
  | Policy.Two_ends { small_max } -> request > small_max
  | Policy.First_fit | Policy.Next_fit | Policy.Best_fit | Policy.Worst_fit -> false

(* Placement by walking: a free block whose size covers [needed], or
   [null]. *)
let walk_for_hole t ~request ~needed =
  match t.policy with
  | Policy.First_fit -> first_fit t t.free_head needed
  | Policy.Next_fit ->
    if t.free_head = null then null
    else begin
      let start = if t.rover <> null then t.rover else t.free_head in
      next_fit t start needed ~start ~wrapped:false
    end
  | Policy.Best_fit -> best_fit t t.free_head needed ~best:null ~best_size:max_int
  | Policy.Worst_fit -> worst_fit t t.free_head needed ~worst:null ~worst_size:0
  | Policy.Two_ends _ ->
    if take_high t request then last_fit t t.free_head needed ~last:null
    else first_fit t t.free_head needed

(* A next-fit rove resumes at [off], or at the head past the list's end. *)
let rove_to t off =
  match t.policy with
  | Policy.Next_fit -> t.rover <- (if off <> null then off else t.free_head)
  | Policy.First_fit | Policy.Best_fit | Policy.Worst_fit | Policy.Two_ends _ -> ()

(* Carve [needed] words from the walked-to hole at [off]: from its high
   end for a two-ends large request, else from its low end. *)
let carve_walked t off ~request ~needed =
  let size = Block.size (header t off) in
  let remainder = size - needed in
  if remainder < Block.min_block then begin
    let succ = next_free t off in
    unlink t off;
    rove_to t succ;
    grant t off size
  end
  else begin
    split_event t off ~needed ~remainder;
    if take_high t request then begin
      (* The hole shrinks in place; its links and position are
         unchanged.  The allocation sits at its high end. *)
      write_tags t off ~size:remainder ~allocated:false;
      rove_to t off;
      grant t (off + remainder) needed
    end
    else begin
      let rem_off = off + needed in
      write_tags t rem_off ~size:remainder ~allocated:false;
      replace_node t off rem_off;
      rove_to t rem_off;
      grant t off needed
    end
  end

(* The merged block takes a free neighbour's list slot: the lower
   neighbour grows in place, or the block replaces its upper neighbour.
   With neither free it is spliced in after the nearest hole below.  A
   rover on an absorbed neighbour moves to the merged block's successor. *)
let relink_walked t off ~lower ~after ~upper_size =
  if lower <> null then begin
    if upper_size > 0 then unlink t after;
    if t.rover = lower then t.rover <- next_free t lower
  end
  else if upper_size > 0 then begin
    if t.rover = after then t.rover <- next_free t after;
    replace_node t after off
  end
  else begin
    let prev = hole_below t off in
    link t off ~prev ~next:(if prev = null then t.free_head else next_free t prev)
  end

(* --- Large regions: the hole index --- *)

(* The chosen hole's index position, or [Hole_index.none].  [t.examined]
   is the length of the list walk the search replaces: best, worst and
   last fit look at every hole, first fit stops at the first sufficient
   one. *)
let search t ix ~request ~needed =
  match t.policy with
  | Policy.Best_fit ->
    t.examined <- Hole_index.length ix;
    Hole_index.best_fit ix needed
  | Policy.Worst_fit ->
    t.examined <- Hole_index.length ix;
    Hole_index.worst_fit ix needed
  | Policy.Two_ends _ when take_high t request ->
    t.examined <- Hole_index.length ix;
    Hole_index.last_fit ix needed
  (* next fit keeps no index and never searches one *)
  | Policy.First_fit | Policy.Two_ends _ | Policy.Next_fit ->
    let p = Hole_index.first_fit ix needed in
    t.examined <- (if p = Hole_index.none then Hole_index.length ix else Hole_index.rank ix p + 1);
    p

(* Carve [needed] words from the hole at index position [p]: from its
   high end for a two-ends large request, else from its low end. *)
let carve_indexed t ix p ~request ~needed =
  let off = Hole_index.off ix p in
  let remainder = Hole_index.size ix p - needed in
  let prev = Hole_index.off_before ix p and next = Hole_index.off_from ix (p + 1) in
  if remainder < Block.min_block then begin
    unlink_between t ~prev ~next;
    Hole_index.remove ix p;
    grant t off (remainder + needed)
  end
  else begin
    split_event t off ~needed ~remainder;
    if take_high t request then begin
      (* The hole shrinks in place; its links and position are
         unchanged.  The allocation sits at its high end. *)
      write_tags t off ~size:remainder ~allocated:false;
      Hole_index.replace ix p ~off ~size:remainder;
      grant t (off + remainder) needed
    end
    else begin
      let rem_off = off + needed in
      write_tags t rem_off ~size:remainder ~allocated:false;
      link t rem_off ~prev ~next;
      Hole_index.replace ix p ~off:rem_off ~size:remainder;
      grant t off needed
    end
  end

(* As [relink_walked], with the list neighbours and the new hole's
   slot read from the index. *)
let relink_indexed t ix off ~lower ~upper_size ~merged_size =
  let p = Hole_index.locate ix off in
  if lower <> null then begin
    Hole_index.replace ix (Hole_index.before ix p) ~off:lower ~size:merged_size;
    if upper_size > 0 then begin
      unlink_between t ~prev:lower ~next:(Hole_index.off_from ix (p + 1));
      Hole_index.remove ix p
    end
  end
  else begin
    let prev = Hole_index.off_before ix p in
    if upper_size > 0 then begin
      link t off ~prev ~next:(Hole_index.off_from ix (p + 1));
      Hole_index.replace ix p ~off ~size:merged_size
    end
    else begin
      link t off ~prev ~next:(Hole_index.off_from ix p);
      Hole_index.insert ix p ~off ~size:merged_size
    end
  end

let alloc t request =
  assert (request >= 1);
  t.ops <- t.ops + 1;
  let needed = max Block.min_block (request + Block.overhead) in
  t.examined <- 0;
  match t.index with
  | Some ix ->
    let p = search t ix ~request ~needed in
    Metrics.Stats.add t.searches (float_of_int t.examined);
    if p = Hole_index.none then refuse t else carve_indexed t ix p ~request ~needed
  | None ->
    let off = walk_for_hole t ~request ~needed in
    Metrics.Stats.add t.searches (float_of_int t.examined);
    if off = null then refuse t else carve_walked t off ~request ~needed

(* Size of the live block whose payload starts at [addr]. *)
let live_size t addr =
  let off = addr - t.base - 1 in
  if off < 0 || off >= t.len then invalid_arg "Allocator: address outside region";
  let w = header t off in
  if not (Block.allocated w) then invalid_arg "Allocator: not a live allocation";
  let size = Block.size w in
  if size < Block.min_block || size > t.len - off then invalid_arg "Allocator: corrupt block";
  size

let payload_size t addr = live_size t addr - Block.overhead

let free t addr =
  let size = live_size t addr in
  let off = addr - t.base - 1 in
  t.ops <- t.ops + 1;
  t.live_words <- t.live_words - (size - Block.overhead);
  t.live_blocks <- t.live_blocks - 1;
  if t.tracing then emit t (Free { addr; size = size - Block.overhead });
  let after = off + size in
  let upper_size =
    if after >= t.len then 0
    else begin
      let w = header t after in
      if Block.allocated w then 0 else Block.size w
    end
  in
  let lower =
    if off = 0 then null
    else begin
      let w = Block.footer t.mem ~base:t.base off in
      if Block.allocated w then null else off - Block.size w
    end
  in
  let merged_off = if lower = null then off else lower in
  let merged_size = after + upper_size - merged_off in
  if t.tracing && merged_size > size then
    emit t (Coalesce { addr = t.base + merged_off; size = merged_size });
  (match t.index with
   | Some ix -> relink_indexed t ix off ~lower ~upper_size ~merged_size
   | None -> relink_walked t off ~lower ~after ~upper_size);
  write_tags t merged_off ~size:merged_size ~allocated:false

let live_words t = t.live_words

let live_blocks t = t.live_blocks

let failures t = t.failures

let search_stats t = t.searches

type walk_block = { off : int; size : int; allocated : bool }

let walk t =
  let rec loop off acc =
    if off >= t.len then List.rev acc
    else begin
      let w = header t off in
      let size = Block.size w in
      assert (size >= 2);
      loop (off + size) ({ off; size; allocated = Block.allocated w } :: acc)
    end
  in
  loop 0 []

let free_block_sizes t =
  List.filter_map (fun b -> if b.allocated then None else Some b.size) (walk t)

let free_words t = List.fold_left ( + ) 0 (free_block_sizes t)

let largest_free t =
  let largest = List.fold_left max 0 (free_block_sizes t) in
  max 0 (largest - Block.overhead)

let compact t channel ~relocate =
  let blocks = walk t in
  t.free_head <- null;
  t.rover <- null;
  Option.iter Hole_index.clear t.index;
  let place dst b =
    if b.allocated then begin
      if b.off > dst then begin
        Memstore.Channel.move channel t.mem ~src:(t.base + b.off)
          ~dst:(t.base + dst) ~len:b.size;
        relocate (t.base + b.off + 1) (t.base + dst + 1);
        if t.tracing then
          emit t
            (Compaction_move { src = t.base + b.off; dst = t.base + dst; len = b.size })
      end;
      dst + b.size
    end
    else dst
  in
  let dst = List.fold_left place 0 blocks in
  let remainder = t.len - dst in
  if remainder >= Block.min_block then begin
    write_tags t dst ~size:remainder ~allocated:false;
    set_next t dst null;
    set_prev t dst null;
    t.free_head <- dst;
    Option.iter
      (fun ix -> Hole_index.insert ix (Hole_index.locate ix dst) ~off:dst ~size:remainder)
      t.index
  end
  else if remainder > 0 then begin
    (* Too small to describe as a block: pad the final live block. *)
    let rec last_live_end off acc =
      if off >= dst then acc
      else
        let size = Block.size (header t off) in
        last_live_end (off + size) (off, size)
    in
    match last_live_end 0 (-1, 0) with
    | -1, _ -> assert false (* dst > 0 implies at least one live block *)
    | last_off, last_size ->
      write_tags t last_off ~size:(last_size + remainder) ~allocated:true;
      t.live_words <- t.live_words + remainder
  end

(* lint: allow L4 — validate below is a documented test-facing checker that raises Failure *)
let fail fmt = Printf.ksprintf failwith fmt

let validate t =
  let blocks = walk t in
  let total = List.fold_left (fun acc b -> acc + b.size) 0 blocks in
  if total <> t.len then fail "validate: blocks cover %d of %d words" total t.len;
  List.iter
    (fun b ->
      if Block.footer t.mem ~base:t.base (b.off + b.size) <> header t b.off then
        fail "validate: footer mismatch at %d" b.off;
      if b.size < Block.min_block then fail "validate: runt block at %d" b.off)
    blocks;
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
      if (not a.allocated) && not b.allocated then
        fail "validate: uncoalesced free blocks at %d and %d" a.off b.off;
      adjacent rest
    | [ _ ] | [] -> ()
  in
  adjacent blocks;
  let walked_free = List.filter_map (fun b -> if b.allocated then None else Some b.off) blocks in
  let listed_free =
    let rec loop off prev acc =
      if off = null then List.rev acc
      else begin
        if prev_free t off <> prev then fail "validate: bad prev link at %d" off;
        if prev <> null && off <= prev then fail "validate: free list not ascending at %d" off;
        if Block.allocated (header t off) then fail "validate: allocated block %d on free list" off;
        loop (next_free t off) off (off :: acc)
      end
    in
    loop t.free_head null []
  in
  if walked_free <> listed_free then
    fail "validate: free list (%d nodes) disagrees with walk (%d free blocks)"
      (List.length listed_free) (List.length walked_free);
  let live = List.filter (fun b -> b.allocated) blocks in
  if List.length live <> t.live_blocks then
    fail "validate: live_blocks counter %d vs %d" t.live_blocks (List.length live);
  let payload = List.fold_left (fun acc b -> acc + b.size - Block.overhead) 0 live in
  if payload <> t.live_words then
    fail "validate: live_words counter %d vs %d" t.live_words payload;
  if t.rover <> null && not (List.mem t.rover listed_free) then
    fail "validate: rover %d not on free list" t.rover;
  match t.index with
  | None -> ()
  | Some ix ->
    Hole_index.validate ix;
    let rec agree indexed walked =
      match (indexed, walked) with
      | [], [] -> ()
      | (o, s) :: indexed, b :: walked ->
        if o <> b.off || s <> b.size then
          fail "validate: index holds hole %d (%d words) where the list has %d (%d words)" o s
            b.off b.size;
        agree indexed walked
      | _ :: _, [] | [], _ :: _ ->
        fail "validate: index holds %d holes, the list %d" (Hole_index.length ix)
          (List.length listed_free)
    in
    agree (Hole_index.holes ix) (List.filter (fun b -> not b.allocated) blocks)
