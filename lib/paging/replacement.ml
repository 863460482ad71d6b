type t = {
  name : string;
  on_reference : page:int -> write:bool -> unit;
  on_load : page:int -> unit;
  on_evict : page:int -> unit;
  choose_victim : candidates:int array -> int;
}

let admit policy slots ~page =
  let victim =
    if Resident_slots.is_full slots then begin
      let victim = policy.choose_victim ~candidates:(Resident_slots.slots slots) in
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
let first_min candidates key =
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
let first_max candidates key =
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
  }

let lru () =
  let stamp = Flat_table.create ~absent:0 in
  let tick = ref 0 in
  let stamp_of p = Flat_table.find stamp p in
  {
    name = "LRU";
    on_reference =
      (fun ~page ~write:_ ->
        incr tick;
        Flat_table.set stamp page !tick);
    on_load = (fun ~page -> Flat_table.set stamp page !tick);
    on_evict = (fun ~page -> Flat_table.remove stamp page);
    choose_victim = (fun ~candidates -> first_min candidates stamp_of);
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
  }

let random rng =
  {
    name = "RANDOM";
    on_reference = no_ref;
    on_load = no_page;
    on_evict = no_page;
    choose_victim = (fun ~candidates -> Sim.Rng.pick rng candidates);
  }

(* Shared helper: random choice among the candidates of the best
   (lowest-keyed) class.  One [Sim.Rng.int] draw over the class size,
   indexing the class in candidate order: the draw [Sim.Rng.pick] makes
   on the class as an array, without building it. *)
let pick_best_class rng ~candidates ~class_of =
  let best = ref max_int and size = ref 0 in
  for i = 0 to Array.length candidates - 1 do
    let k = class_of candidates.(i) in
    if k < !best then begin
      best := k;
      size := 1
    end
    else if k = !best then incr size
  done;
  let skip = ref (Sim.Rng.int rng !size) and i = ref (-1) in
  while !skip >= 0 do
    incr i;
    if class_of candidates.(!i) = !best then decr skip
  done;
  candidates.(!i)

let nru rng =
  (* One word per page: bit 1 = used, bit 0 = modified, which is the
     page's class number. *)
  let bits = Flat_table.create ~absent:0 in
  let class_of p = Flat_table.find bits p in
  {
    name = "NRU";
    on_reference =
      (fun ~page ~write ->
        Flat_table.set bits page (Flat_table.find bits page lor 2 lor Bool.to_int write));
    on_load = no_page;
    on_evict = (fun ~page -> Flat_table.remove bits page);
    choose_victim =
      (fun ~candidates ->
        let victim = pick_best_class rng ~candidates ~class_of in
        (* Periodic sensor reset, modelled as happening at each decision. *)
        for i = 0 to Array.length candidates - 1 do
          let p = candidates.(i) in
          Flat_table.set bits p (Flat_table.find bits p land 1)
        done;
        victim);
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
  }

let atlas_learning () =
  let now = ref 0 in
  let last_use = Flat_table.create ~absent:(-1) in
  let prev_gap = Flat_table.create ~absent:0 in  (* T: previous period of inactivity *)
  let t_of p = !now - Int.max 0 (Flat_table.find last_use p) in
  let big_t p = Flat_table.find prev_gap p in
  let expected_idle p = big_t p - t_of p in
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
           last, i.e. maximal T - t. *)
        let out = ref gone and out_t = ref min_int in
        for i = 0 to Array.length candidates - 1 do
          let p = candidates.(i) in
          let t = t_of p in
          if t > big_t p + 1 && t > !out_t then begin
            out := p;
            out_t := t
          end
        done;
        if !out <> gone then !out else first_max candidates expected_idle);
  }

let m44 rng =
  (* One word per page: the reference count times two, plus the modified
     bit. *)
  let state = Flat_table.create ~absent:0 in
  let freq p = Flat_table.find state p lsr 1 in
  let least = ref 0 in
  let class_of p =
    let v = Flat_table.find state p in
    if v lsr 1 > !least then 2 else v land 1
  in
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
           references. *)
        least := max_int;
        for i = 0 to Array.length candidates - 1 do
          least := Int.min !least (freq candidates.(i))
        done;
        let victim = pick_best_class rng ~candidates ~class_of in
        for i = 0 to Array.length candidates - 1 do
          let p = candidates.(i) in
          let v = Flat_table.find state p in
          Flat_table.set state p (((((v lsr 1) / 2) + 1) lsl 1) lor (v land 1))
        done;
        victim);
  }

let working_set ~tau =
  assert (tau > 0);
  let now = ref 0 in
  let last_use = Flat_table.create ~absent:0 in
  let last p = Flat_table.find last_use p in
  {
    name = Printf.sprintf "WS(%d)" tau;
    on_reference =
      (fun ~page ~write:_ ->
        incr now;
        Flat_table.set last_use page !now);
    on_load = (fun ~page -> Flat_table.set last_use page !now);
    on_evict = (fun ~page -> Flat_table.remove last_use page);
    choose_victim =
      (fun ~candidates ->
        (* Oldest page; if it is outside the window that is a true
           working-set eviction, otherwise it degrades to LRU. *)
        first_min candidates last);
  }

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
