(* Reference allocator: Freelist.Allocator as it was before its free
   path stopped walking the list and its tag and link words were read
   unboxed, kept verbatim as the oracle that test_freelist.ml runs the
   library allocator against.  [free] unlinks both free neighbours and
   re-inserts the merged block by walking the address-ordered list from
   its head; tags are decoded through an [int64] record codec.  Both
   allocators must leave the same words in the store. *)

module Policy = Freelist.Policy

(* The boundary-tag codec the library used, over boxed [int64] words. *)
module Block = struct
  let min_block = 4

  let overhead = 2

  let null = -1

  type tag = { size : int; allocated : bool }

  let encode { size; allocated } =
    Int64.of_int ((size lsl 1) lor (if allocated then 1 else 0))

  let decode v =
    let n = Int64.to_int v in
    { size = n lsr 1; allocated = n land 1 = 1 }

  let read_header mem ~base off = decode (Memstore.Physical.read mem (base + off))

  let read_footer mem ~base off = decode (Memstore.Physical.read mem (base + off - 1))

  let write_tags mem ~base off tag =
    assert (tag.size >= 2);
    let v = encode tag in
    Memstore.Physical.write mem (base + off) v;
    Memstore.Physical.write mem (base + off + tag.size - 1) v

  let read_next mem ~base off = Int64.to_int (Memstore.Physical.read mem (base + off + 1))

  let read_prev mem ~base off = Int64.to_int (Memstore.Physical.read mem (base + off + 2))

  let write_next mem ~base off v =
    Memstore.Physical.write mem (base + off + 1) (Int64.of_int v)

  let write_prev mem ~base off v =
    Memstore.Physical.write mem (base + off + 2) (Int64.of_int v)
end

type t = {
  mem : Memstore.Physical.t;
  base : int;
  len : int;
  policy : Policy.t;
  mutable free_head : int;  (* region-relative offset, Block.null if none *)
  mutable rover : int;  (* next-fit resume point *)
  mutable live_words : int;  (* sum of payload words of live blocks *)
  mutable live_blocks : int;
  mutable failures : int;
  searches : Metrics.Stats.t;
  obs : Obs.Sink.t;
  tracing : bool;
  clock : Sim.Clock.t option;  (* event timestamps; operation count if absent *)
  mutable ops : int;
}

let null = Block.null

type spec = { s_base : int; s_len : int; s_policy : Policy.t }

let create ?(obs = Obs.Sink.null) ?clock mem ~base ~len ~policy =
  assert (len >= Block.min_block);
  assert (base >= 0 && base + len <= Memstore.Physical.size mem);
  let t =
    {
      mem;
      base;
      len;
      policy;
      free_head = 0;
      rover = null;
      live_words = 0;
      live_blocks = 0;
      failures = 0;
      searches = Metrics.Stats.create ();
      obs;
      tracing = Obs.Sink.is_active obs;
      clock;
      ops = 0;
    }
  in
  Block.write_tags mem ~base 0 { size = len; allocated = false };
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

let header t off = Block.read_header t.mem ~base:t.base off

let next_free t off = Block.read_next t.mem ~base:t.base off

let prev_free t off = Block.read_prev t.mem ~base:t.base off

let set_next t off v = Block.write_next t.mem ~base:t.base off v

let set_prev t off v = Block.write_prev t.mem ~base:t.base off v

let unlink t off =
  let next = next_free t off and prev = prev_free t off in
  if prev = null then t.free_head <- next else set_next t prev next;
  if next <> null then set_prev t next prev;
  if t.rover = off then t.rover <- next

(* Replace node [off] by node [off'] at the same list position; used when
   splitting leaves the remainder where the hole's links can be reused in
   address order. *)
let replace_node t off off' =
  let next = next_free t off and prev = prev_free t off in
  set_next t off' next;
  set_prev t off' prev;
  if prev = null then t.free_head <- off' else set_next t prev off';
  if next <> null then set_prev t next off';
  if t.rover = off then t.rover <- off'

let insert_ordered t off =
  if t.free_head = null || t.free_head > off then begin
    set_next t off t.free_head;
    set_prev t off null;
    if t.free_head <> null then set_prev t t.free_head off;
    t.free_head <- off
  end
  else begin
    let rec find cur =
      let next = next_free t cur in
      if next = null || next > off then cur else find next
    in
    let cur = find t.free_head in
    let next = next_free t cur in
    set_next t off next;
    set_prev t off cur;
    set_next t cur off;
    if next <> null then set_prev t next off
  end

let mark_free t off size =
  Block.write_tags t.mem ~base:t.base off { size; allocated = false };
  insert_ordered t off

(* Placement: find a free block whose size covers [needed].  Returns the
   block offset and whether the allocation should be taken from its high
   end.  [examined] counts free-list nodes looked at. *)
let find_hole t ~request ~needed ~examined =
  let scan_first start =
    let rec loop off =
      if off = null then null
      else begin
        incr examined;
        if (header t off).size >= needed then off else loop (next_free t off)
      end
    in
    loop start
  in
  match t.policy with
  | Policy.First_fit ->
    let off = scan_first t.free_head in
    if off = null then None else Some (off, false)
  | Policy.Next_fit ->
    if t.free_head = null then None
    else begin
      let start = if t.rover <> null then t.rover else t.free_head in
      let rec loop off wrapped =
        if off = null then if wrapped then null else loop t.free_head true
        else if wrapped && off >= start then null
        else begin
          incr examined;
          if (header t off).size >= needed then off
          else loop (next_free t off) wrapped
        end
      in
      let off = loop start false in
      if off = null then None else Some (off, false)
    end
  | Policy.Best_fit ->
    let best = ref null and best_size = ref max_int in
    let rec loop off =
      if off <> null then begin
        incr examined;
        let s = (header t off).size in
        if s >= needed && s < !best_size then begin
          best := off;
          best_size := s
        end;
        loop (next_free t off)
      end
    in
    loop t.free_head;
    if !best = null then None else Some (!best, false)
  | Policy.Worst_fit ->
    let worst = ref null and worst_size = ref 0 in
    let rec loop off =
      if off <> null then begin
        incr examined;
        let s = (header t off).size in
        if s >= needed && s > !worst_size then begin
          worst := off;
          worst_size := s
        end;
        loop (next_free t off)
      end
    in
    loop t.free_head;
    if !worst = null then None else Some (!worst, false)
  | Policy.Two_ends { small_max } ->
    if request <= small_max then begin
      let off = scan_first t.free_head in
      if off = null then None else Some (off, false)
    end
    else begin
      (* Highest-addressed sufficient hole, taken from its high end. *)
      let last = ref null in
      let rec loop off =
        if off <> null then begin
          incr examined;
          if (header t off).size >= needed then last := off;
          loop (next_free t off)
        end
      in
      loop t.free_head;
      if !last = null then None else Some (!last, true)
    end

let alloc t request =
  assert (request >= 1);
  t.ops <- t.ops + 1;
  let needed = max Block.min_block (request + Block.overhead) in
  let examined = ref 0 in
  let result =
    match find_hole t ~request ~needed ~examined with
    | None ->
      t.failures <- t.failures + 1;
      None
    | Some (off, take_high) ->
      let size = (header t off).size in
      let remainder = size - needed in
      let succ = next_free t off in
      let granted_off, granted_size, rover_after =
        if remainder >= Block.min_block then begin
          if take_high then begin
            (* The hole shrinks in place; its links and position are
               unchanged.  The allocation sits at its high end. *)
            Block.write_tags t.mem ~base:t.base off
              { size = remainder; allocated = false };
            (off + remainder, needed, off)
          end
          else begin
            let rem_off = off + needed in
            Block.write_tags t.mem ~base:t.base rem_off
              { size = remainder; allocated = false };
            replace_node t off rem_off;
            (off, needed, rem_off)
          end
        end
        else begin
          unlink t off;
          (off, size, succ)
        end
      in
      Block.write_tags t.mem ~base:t.base granted_off
        { size = granted_size; allocated = true };
      (match t.policy with
       | Policy.Next_fit ->
         (* Resume the rove just past the hole we carved. *)
         t.rover <- (if rover_after <> null then rover_after else t.free_head)
       | Policy.First_fit | Policy.Best_fit | Policy.Worst_fit | Policy.Two_ends _ -> ());
      t.live_words <- t.live_words + granted_size - Block.overhead;
      t.live_blocks <- t.live_blocks + 1;
      if t.tracing then begin
        if remainder >= Block.min_block then
          emit t
            (Split { addr = t.base + off; size = granted_size; remainder });
        emit t
          (Alloc
             { addr = t.base + granted_off + 1; size = granted_size - Block.overhead })
      end;
      Some (t.base + granted_off + 1)
  in
  Metrics.Stats.add t.searches (float_of_int !examined);
  result

let block_of_payload t addr =
  let off = addr - t.base - 1 in
  if off < 0 || off >= t.len then invalid_arg "Allocator: address outside region";
  let tag = header t off in
  if not tag.Block.allocated then invalid_arg "Allocator: not a live allocation";
  if tag.Block.size < Block.min_block || tag.Block.size > t.len - off then
    invalid_arg "Allocator: corrupt block";
  (off, tag.Block.size)

let payload_size t addr =
  let _, size = block_of_payload t addr in
  size - Block.overhead

let free t addr =
  let off, size = block_of_payload t addr in
  t.ops <- t.ops + 1;
  t.live_words <- t.live_words - (size - Block.overhead);
  t.live_blocks <- t.live_blocks - 1;
  if t.tracing then emit t (Free { addr; size = size - Block.overhead });
  let new_off = ref off and new_size = ref size in
  let after = off + size in
  if after < t.len then begin
    let next = header t after in
    if not next.Block.allocated then begin
      unlink t after;
      new_size := !new_size + next.Block.size
    end
  end;
  if off > 0 then begin
    let prev = Block.read_footer t.mem ~base:t.base off in
    if not prev.Block.allocated then begin
      let prev_off = off - prev.Block.size in
      unlink t prev_off;
      new_off := prev_off;
      new_size := !new_size + prev.Block.size
    end
  end;
  if t.tracing && !new_size > size then
    emit t (Coalesce { addr = t.base + !new_off; size = !new_size });
  mark_free t !new_off !new_size

let live_words t = t.live_words

let live_blocks t = t.live_blocks

let failures t = t.failures

let search_stats t = t.searches

type walk_block = { off : int; size : int; allocated : bool }

let walk t =
  let rec loop off acc =
    if off >= t.len then List.rev acc
    else begin
      let tag = header t off in
      assert (tag.Block.size >= 2);
      loop (off + tag.Block.size)
        ({ off; size = tag.Block.size; allocated = tag.Block.allocated } :: acc)
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
    Block.write_tags t.mem ~base:t.base dst { size = remainder; allocated = false };
    set_next t dst null;
    set_prev t dst null;
    t.free_head <- dst
  end
  else if remainder > 0 then begin
    (* Too small to describe as a block: pad the final live block. *)
    let rec last_live_end off acc =
      if off >= dst then acc
      else
        let tag = header t off in
        last_live_end (off + tag.Block.size) (off, tag.Block.size)
    in
    match last_live_end 0 (-1, 0) with
    | -1, _ -> assert false (* dst > 0 implies at least one live block *)
    | last_off, last_size ->
      Block.write_tags t.mem ~base:t.base last_off
        { size = last_size + remainder; allocated = true };
      t.live_words <- t.live_words + remainder
  end

let fail fmt = Printf.ksprintf failwith fmt

let validate t =
  let blocks = walk t in
  let total = List.fold_left (fun acc b -> acc + b.size) 0 blocks in
  if total <> t.len then fail "validate: blocks cover %d of %d words" total t.len;
  List.iter
    (fun b ->
      let footer = Block.read_footer t.mem ~base:t.base (b.off + b.size) in
      if footer.Block.size <> b.size || footer.Block.allocated <> b.allocated then
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
        if (header t off).Block.allocated then fail "validate: allocated block %d on free list" off;
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
    fail "validate: rover %d not on free list" t.rover
