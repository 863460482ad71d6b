(* Reference fault counters for FIFO, LRU and OPT, written from the
   textbook definitions and sharing no code with lib/paging.  They are
   deliberately naive (a linear scan over the resident set per
   eviction): the point is to be obviously right, not fast. *)

type counts = { faults : int; cold : int; evictions : int }

(* Demand paging over [trace] with [frames] frames.  Reference [i] to
   [page] first calls [touch i page]; on a fault with every frame full,
   the page of [resident] minimising [key] is replaced; the faulting
   page is then loaded and [load i page] called. *)
let simulate ~frames ~touch ~load ~key trace =
  let extent = Array.fold_left max (-1) trace + 1 in
  let is_resident = Array.make extent false and seen = Array.make extent false in
  let resident = Array.make frames (-1) and used = ref 0 in
  let faults = ref 0 and cold = ref 0 and evictions = ref 0 in
  Array.iteri
    (fun i page ->
      touch i page;
      if not is_resident.(page) then begin
        incr faults;
        if not seen.(page) then begin
          seen.(page) <- true;
          incr cold
        end;
        let slot =
          if !used < frames then begin
            incr used;
            !used - 1
          end
          else begin
            let v = ref 0 in
            for s = 1 to frames - 1 do
              if key resident.(s) < key resident.(!v) then v := s
            done;
            is_resident.(resident.(!v)) <- false;
            incr evictions;
            !v
          end
        in
        resident.(slot) <- page;
        is_resident.(page) <- true;
        load i page
      end)
    trace;
  { faults = !faults; cold = !cold; evictions = !evictions }

let stamps trace = Array.make (Array.fold_left max (-1) trace + 1) 0

(* Replace the page loaded longest ago. *)
let fifo ~frames trace =
  let loaded_at = stamps trace in
  simulate ~frames trace
    ~touch:(fun _ _ -> ())
    ~load:(fun i page -> loaded_at.(page) <- i)
    ~key:(fun page -> loaded_at.(page))

(* Replace the page referenced longest ago. *)
let lru ~frames trace =
  let last_use = stamps trace in
  simulate ~frames trace
    ~touch:(fun i page -> last_use.(page) <- i)
    ~load:(fun _ _ -> ())
    ~key:(fun page -> last_use.(page))

(* Replace the page whose next reference is farthest away.  Ties only
   arise among pages never referenced again, and any choice among those
   gives the same fault count. *)
let opt ~frames trace =
  let n = Array.length trace in
  let next_use = Array.make n max_int and upcoming = Array.make (Array.length (stamps trace)) max_int in
  for i = n - 1 downto 0 do
    next_use.(i) <- upcoming.(trace.(i));
    upcoming.(trace.(i)) <- i
  done;
  let next_of = stamps trace in
  simulate ~frames trace
    ~touch:(fun i page -> next_of.(page) <- next_use.(i))
    ~load:(fun _ _ -> ())
    ~key:(fun page -> - next_of.(page))
