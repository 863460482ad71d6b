type t = {
  name : string;
  on_reference : page:int -> write:bool -> unit;
  on_load : page:int -> unit;
  on_evict : page:int -> unit;
  choose_victim : candidates:int array -> int;
  full_victim : (unit -> int) option;
}

(* The full-set answer is the minimum over every page the policy holds
   state for, a superset of the slots: when it is one of the slots it is
   also their minimum, and otherwise the scan decides. *)
let victim policy slots =
  match policy.full_victim with
  | Some oldest ->
    let v = oldest () in
    if Resident_slots.mem slots v then v
    else policy.choose_victim ~candidates:(Resident_slots.slots slots)
  | None -> policy.choose_victim ~candidates:(Resident_slots.slots slots)

let admit policy slots ~page =
  let victim =
    if Resident_slots.is_full slots then begin
      let victim = victim policy slots in
      Resident_slots.remove slots victim;
      policy.on_evict ~page:victim;
      victim
    end
    else -1
  in
  Resident_slots.add slots page;
  policy.on_load ~page;
  victim

let no_ref ~page:_ ~write:_ = ()

let no_page ~page:_ = ()

(* The first candidate, in candidate order, minimising [key]. *)
let first_min (candidates : int array) (key : int -> int) =
  let best = ref candidates.(0) in
  let best_key = ref (key !best) in
  for i = 1 to Array.length candidates - 1 do
    let p = candidates.(i) in
    let k = key p in
    if k < !best_key then begin
      best := p;
      best_key := k
    end
  done;
  !best

(* The first candidate, in candidate order, maximising [key]. *)
let first_max (candidates : int array) (key : int -> int) =
  let best = ref candidates.(0) in
  let best_key = ref (key !best) in
  for i = 1 to Array.length candidates - 1 do
    let p = candidates.(i) in
    let k = key p in
    if k > !best_key then begin
      best := p;
      best_key := k
    end
  done;
  !best

(* An array of at least [n] ints, reused across calls: where a scan
   keeps each candidate's state for a second pass. *)
let scratch r n =
  if Array.length !r < n then r := Array.make (Int.max n (2 * Array.length !r)) 0;
  !r

type fifo = { mutable queue : int array; mutable head : int; mutable tail : int }

let fifo () =
  (* Load order in [queue.(head .. tail - 1)]; the first entry that is a
     candidate is the victim.  Entries skipped on the way (locked pages,
     or stale entries of pages evicted outside [choose_victim]) keep
     their place at the head, in their relative order. *)
  let q = { queue = Array.make 16 0; head = 0; tail = 0 } in
  let push ~page =
    if q.tail = Array.length q.queue then begin
      let live = q.tail - q.head in
      let dst =
        if 2 * live <= Array.length q.queue then q.queue
        else Array.make (2 * Array.length q.queue) 0
      in
      Array.blit q.queue q.head dst 0 live;
      q.queue <- dst;
      q.head <- 0;
      q.tail <- live
    end;
    q.queue.(q.tail) <- page;
    q.tail <- q.tail + 1
  in
  {
    name = "FIFO";
    on_reference = no_ref;
    on_load = push;
    on_evict = no_page;
    choose_victim =
      (fun ~candidates ->
        assert (Array.length candidates > 0);
        let i = ref q.head in
        while !i < q.tail && not (Resident_slots.ascending_mem candidates q.queue.(!i)) do
          incr i
        done;
        if !i = q.tail then invalid_arg "FIFO: no candidate was ever loaded";
        let victim = q.queue.(!i) in
        Array.blit q.queue q.head q.queue (q.head + 1) (!i - q.head);
        q.head <- q.head + 1;
        victim);
    full_victim = None;
  }

(* LRU.  Until a full-set victim is first asked for, [table] maps each
   page to its stamp and victims are found by scanning the candidates.
   The first request builds the recency list and [table] maps each page
   to its node instead.  The list is circular and doubly linked in
   [nodes], four words per node (page, stamp, prev, next) with node 0
   the sentinel; it runs from the oldest stamp to the newest, and free
   nodes are chained through their next word.  An engine that never
   asks (one that filters its candidates) never builds it. *)
type lru = {
  table : Flat_table.t;
  mutable tick : int;
  mutable nodes : int array;  (* empty until the list is built *)
  mutable top : int;  (* nodes handed out, the sentinel included *)
  mutable free : int;  (* first free node, or 0 *)
}

let page_of n = 4 * n

let stamp_of n = (4 * n) + 1

let prev_of n = (4 * n) + 2

let next_of n = (4 * n) + 3

let unlink l n =
  let a = l.nodes in
  let p = a.(prev_of n) and x = a.(next_of n) in
  a.(next_of p) <- x;
  a.(prev_of x) <- p

let append l n =
  let a = l.nodes in
  let last = a.(prev_of 0) in
  a.(prev_of n) <- last;
  a.(next_of n) <- 0;
  a.(next_of last) <- n;
  a.(prev_of 0) <- n

(* A node for [page] stamped [stamp], at the new end of the list. *)
let new_node l ~page ~stamp =
  let n =
    if l.free <> 0 then begin
      let n = l.free in
      l.free <- l.nodes.(next_of n);
      n
    end
    else begin
      if page_of (l.top + 1) > Array.length l.nodes then begin
        let grown = Array.make (2 * Array.length l.nodes) 0 in
        Array.blit l.nodes 0 grown 0 (Array.length l.nodes);
        l.nodes <- grown
      end;
      l.top <- l.top + 1;
      l.top - 1
    end
  in
  l.nodes.(page_of n) <- page;
  l.nodes.(stamp_of n) <- stamp;
  append l n;
  n

let built l = Array.length l.nodes > 0

(* Every stamped page gets a node, in stamp order. *)
let build l =
  let live = Flat_table.bindings l.table in
  Array.stable_sort (fun (_, a) (_, b) -> Int.compare a b) live;
  l.nodes <- Array.make (page_of (Int.max 16 (2 * (Array.length live + 1)))) 0;
  l.top <- 1;
  Array.iter (fun (page, stamp) -> Flat_table.set l.table page (new_node l ~page ~stamp)) live

let stamp l page =
  if not (built l) then Flat_table.set l.table page l.tick
  else begin
    let n = Flat_table.find l.table page in
    if n < 0 then Flat_table.set l.table page (new_node l ~page ~stamp:l.tick)
    else if l.nodes.(stamp_of n) <> l.tick then begin
      l.nodes.(stamp_of n) <- l.tick;
      unlink l n;
      append l n
    end
  end

let stamp_value l page =
  let v = Flat_table.find l.table page in
  if built l && v >= 0 then l.nodes.(stamp_of v) else v

let forget l page =
  if built l then begin
    let n = Flat_table.find l.table page in
    if n >= 0 then begin
      unlink l n;
      l.nodes.(next_of n) <- l.free;
      l.free <- n
    end
  end;
  Flat_table.remove l.table page

(* The lowest page of the run of oldest stamps at the head of the list:
   the [first_min] answer over every stamped page. *)
let oldest l =
  if not (built l) then build l;
  let a = l.nodes in
  let n = a.(next_of 0) in
  if n = 0 then -1
  else begin
    let s = a.(stamp_of n) in
    let best = ref a.(page_of n) and n = ref a.(next_of n) in
    while !n <> 0 && a.(stamp_of !n) = s do
      if a.(page_of !n) < !best then best := a.(page_of !n);
      n := a.(next_of !n)
    done;
    !best
  end

let lru () =
  let l =
    { table = Flat_table.create ~absent:(-1); tick = 0; nodes = [||]; top = 0; free = 0 }
  in
  let key = stamp_value l in
  {
    name = "LRU";
    on_reference =
      (fun ~page ~write:_ ->
        l.tick <- l.tick + 1;
        stamp l page);
    on_load = (fun ~page -> stamp l page);
    on_evict = (fun ~page -> forget l page);
    choose_victim = (fun ~candidates -> first_min candidates key);
    full_victim = Some (fun () -> oldest l);
  }

let gone = min_int

type clock = {
  mutable ring : int array;  (* pages in load order, [gone] once evicted *)
  mutable len : int;
  mutable live : int;  (* entries of [ring] that are not [gone] *)
  mutable hand : int;  (* next entry the hand examines... *)
  mutable hand_end : int;  (* ...up to [len] as it was at the last wrap *)
  slot : Flat_table.t;  (* page -> its index in [ring] *)
  used : Flat_table.t;  (* page -> use bit *)
}

let clock_sweep () =
  (* Pages on a circular list in load order; a use bit per page set on
     reference; the hand clears bits until it finds one clear.  The hand
     walks the ring as it stood when the hand last wrapped: pages loaded
     since are not reached before the next wrap. *)
  let c =
    {
      ring = Array.make 16 gone;
      len = 0;
      live = 0;
      hand = 0;
      hand_end = 0;
      slot = Flat_table.create ~absent:(-1);
      used = Flat_table.create ~absent:0;
    }
  in
  (* Squeeze out evicted entries (into a larger array when more than
     half are live), renumbering the hand's bounds with them. *)
  let compact () =
    let dst =
      if 2 * c.live <= Array.length c.ring then c.ring
      else Array.make (2 * Array.length c.ring) gone
    in
    let n = ref 0 and hand = ref 0 and hand_end = ref 0 in
    for i = 0 to c.len - 1 do
      if i = c.hand then hand := !n;
      if i = c.hand_end then hand_end := !n;
      let p = c.ring.(i) in
      if p <> gone then begin
        dst.(!n) <- p;
        Flat_table.set c.slot p !n;
        incr n
      end
    done;
    if c.hand >= c.len then hand := !n;
    if c.hand_end >= c.len then hand_end := !n;
    c.ring <- dst;
    c.len <- !n;
    c.hand <- !hand;
    c.hand_end <- !hand_end
  in
  (* Move the hand to the next live entry of its snapshot, wrapping to a
     fresh snapshot of the whole ring when it runs out; false when the
     ring is empty. *)
  let skip_gone () =
    while c.hand < c.hand_end && c.ring.(c.hand) = gone do
      c.hand <- c.hand + 1
    done
  in
  let settle () =
    skip_gone ();
    if c.hand >= c.hand_end then begin
      c.hand <- 0;
      c.hand_end <- c.len;
      skip_gone ()
    end;
    c.hand < c.hand_end
  in
  {
    name = "CLOCK";
    on_reference = (fun ~page ~write:_ -> Flat_table.set c.used page 1);
    on_load =
      (fun ~page ->
        if c.len = Array.length c.ring then compact ();
        c.ring.(c.len) <- page;
        Flat_table.set c.slot page c.len;
        c.len <- c.len + 1;
        c.live <- c.live + 1;
        Flat_table.remove c.used page);
    on_evict =
      (fun ~page ->
        let i = Flat_table.find c.slot page in
        if i >= 0 then begin
          c.ring.(i) <- gone;
          c.live <- c.live - 1;
          Flat_table.remove c.slot page
        end;
        Flat_table.remove c.used page);
    choose_victim =
      (fun ~candidates ->
        let budget = ref (2 * (c.live + 1)) and victim = ref gone in
        while !victim = gone do
          (* budget spent with every bit set and no page eligible, or
             an empty ring: degrade *)
          if !budget = 0 || not (settle ()) then victim := candidates.(0)
          else begin
            let p = c.ring.(c.hand) in
            c.hand <- c.hand + 1;
            if not (Resident_slots.ascending_mem candidates p) then decr budget
            else if Flat_table.find c.used p = 1 then begin
              Flat_table.remove c.used p;
              decr budget
            end
            else victim := p
          end
        done;
        !victim);
    full_victim = None;
  }

let random rng =
  {
    name = "RANDOM";
    on_reference = no_ref;
    on_load = no_page;
    on_evict = no_page;
    choose_victim = (fun ~candidates -> Sim.Rng.pick rng candidates);
    full_victim = None;
  }

(* Random choice among the candidates whose [values] entry is [v], of
   which there are [size]: one [Sim.Rng.int] draw over the class size,
   indexing the class in candidate order, which is the draw
   [Sim.Rng.pick] makes on the class as an array, without building it. *)
let pick_where rng ~(candidates : int array) ~(values : int array) ~size v =
  let skip = ref (Sim.Rng.int rng size) and i = ref (-1) in
  while !skip >= 0 do
    incr i;
    if values.(!i) = v then decr skip
  done;
  candidates.(!i)

let nru rng =
  (* One word per page: bit 1 = used, bit 0 = modified, which is the
     page's class number. *)
  let bits = Flat_table.create ~absent:0 in
  let classes = ref [||] in
  {
    name = "NRU";
    on_reference =
      (fun ~page ~write ->
        Flat_table.set bits page (Flat_table.find bits page lor 2 lor Bool.to_int write));
    on_load = no_page;
    on_evict = (fun ~page -> Flat_table.remove bits page);
    choose_victim =
      (fun ~candidates ->
        let classes = scratch classes (Array.length candidates) in
        let best = ref max_int and size = ref 0 in
        for i = 0 to Array.length candidates - 1 do
          let p = candidates.(i) in
          let c = Flat_table.find bits p in
          classes.(i) <- c;
          if c < !best then begin
            best := c;
            size := 1
          end
          else if c = !best then incr size;
          (* Periodic sensor reset, modelled as happening at each decision. *)
          if c land 2 <> 0 then Flat_table.set bits p (c land 1)
        done;
        pick_where rng ~candidates ~values:classes ~size:!size !best);
    full_victim = None;
  }

let lfu () =
  let count = Flat_table.create ~absent:0 in
  let freq p = Flat_table.find count p in
  {
    name = "LFU";
    on_reference = (fun ~page ~write:_ -> Flat_table.set count page (freq page + 1));
    on_load = (fun ~page -> Flat_table.remove count page);
    on_evict = (fun ~page -> Flat_table.remove count page);
    choose_victim = (fun ~candidates -> first_min candidates freq);
    full_victim = None;
  }

let atlas_learning () =
  let now = ref 0 in
  let last_use = Flat_table.create ~absent:(-1) in
  let prev_gap = Flat_table.create ~absent:0 in  (* T: previous period of inactivity *)
  {
    name = "ATLAS";
    on_reference =
      (fun ~page ~write:_ ->
        incr now;
        let last = Flat_table.find last_use page in
        if last >= 0 && last < !now then Flat_table.set prev_gap page (!now - last);
        Flat_table.set last_use page !now);
    on_load = (fun ~page -> Flat_table.set last_use page !now);
    on_evict = no_page;
    choose_victim =
      (fun ~candidates ->
        (* Pages believed out of use are idle longer than their previous
           inactive period: take the one idle longest.  Otherwise take
           the page that, if the recent pattern holds, will be needed
           last, i.e. maximal T - t.  Both are first maxima in candidate
           order, found in the same pass. *)
        let out = ref gone and out_t = ref min_int in
        let idle = ref gone and idle_key = ref min_int in
        for i = 0 to Array.length candidates - 1 do
          let p = candidates.(i) in
          let t = !now - Int.max 0 (Flat_table.find last_use p) in
          let big_t = Flat_table.find prev_gap p in
          if t > big_t + 1 && t > !out_t then begin
            out := p;
            out_t := t
          end;
          if !idle = gone || big_t - t > !idle_key then begin
            idle := p;
            idle_key := big_t - t
          end
        done;
        if !out <> gone then !out else !idle);
    full_victim = None;
  }

let m44 rng =
  (* One word per page: the reference count times two, plus the modified
     bit. *)
  let state = Flat_table.create ~absent:0 in
  let words = ref [||] in
  {
    name = "M44";
    on_reference =
      (fun ~page ~write ->
        Flat_table.set state page ((Flat_table.find state page + 2) lor Bool.to_int write));
    on_load = (fun ~page -> Flat_table.set state page (Flat_table.find state page land 1));
    on_evict = (fun ~page -> Flat_table.remove state page);
    choose_victim =
      (fun ~candidates ->
        (* Equally acceptable = least frequently used; unmodified
           preferred within that set (no write-back needed).  Counts age
           exponentially at every decision, so a freshly loaded page is
           not condemned merely for having had no time to accumulate
           references.  One pass counts the unmodified and modified
           pages of the least count seen so far, and ages each count
           once its old word is kept for the draw. *)
        let words = scratch words (Array.length candidates) in
        let least = ref max_int and clean = ref 0 and dirty = ref 0 in
        for i = 0 to Array.length candidates - 1 do
          let p = candidates.(i) in
          let v = Flat_table.find state p in
          words.(i) <- v;
          let freq = v lsr 1 in
          if freq < !least then begin
            least := freq;
            clean := 0;
            dirty := 0
          end;
          if freq = !least then begin
            if v land 1 = 0 then incr clean else incr dirty
          end;
          let aged = (((freq / 2) + 1) lsl 1) lor (v land 1) in
          if aged <> v then Flat_table.set state p aged
        done;
        if !clean > 0 then pick_where rng ~candidates ~values:words ~size:!clean (!least lsl 1)
        else pick_where rng ~candidates ~values:words ~size:!dirty ((!least lsl 1) lor 1));
    full_victim = None;
  }

let working_set ~tau =
  assert (tau > 0);
  { (lru ()) with name = Printf.sprintf "WS(%d)" tau }

let opt trace =
  (* The positions of page p in the trace, ascending, are
     [at.(start.(p)) .. at.(start.(p + 1) - 1)]; [cursor.(p)] is the
     first of them not yet consumed. *)
  let extent = Workload.Trace.extent trace in
  let start = Array.make (extent + 1) 0 in
  Array.iter
    (fun p ->
      if p < 0 then invalid_arg (Printf.sprintf "Replacement.opt: negative page %d" p);
      start.(p + 1) <- start.(p + 1) + 1)
    trace;
  for p = 1 to extent do
    start.(p) <- start.(p) + start.(p - 1)
  done;
  let cursor = Array.sub start 0 extent in
  let at = Array.make (Array.length trace) 0 in
  Array.iteri
    (fun i p ->
      at.(cursor.(p)) <- i;
      cursor.(p) <- cursor.(p) + 1)
    trace;
  Array.blit start 0 cursor 0 extent;
  let position = ref (-1) in
  let next_use p =
    if p >= extent then max_int
    else begin
      while cursor.(p) < start.(p + 1) && at.(cursor.(p)) <= !position do
        cursor.(p) <- cursor.(p) + 1
      done;
      if cursor.(p) >= start.(p + 1) then max_int else at.(cursor.(p))
    end
  in
  {
    name = "OPT";
    on_reference = (fun ~page:_ ~write:_ -> incr position);
    on_load = no_page;
    on_evict = no_page;
    choose_victim = (fun ~candidates -> first_max candidates next_use);
    full_victim = None;
  }

let all_practical rng =
  [
    fifo ();
    lru ();
    clock_sweep ();
    random (Sim.Rng.split rng);
    nru (Sim.Rng.split rng);
    lfu ();
    atlas_learning ();
    m44 (Sim.Rng.split rng);
    working_set ~tau:64;
  ]
