(* Differential tests of the flat replacement core: Paging.Fault_sim and
   Paging.Replacement against the Hashtbl engine they replaced, kept
   verbatim as Ref_fault_sim and Ref_replacement.  Both must agree on
   every result, every emitted event and every victim. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let specs = Paging.Spec.all_practical @ [ Paging.Spec.Opt ]

(* Spec.instantiate, building the reference policies. *)
let ref_instantiate spec ~rng ~trace =
  let rng = Sim.Rng.split rng in
  match spec with
  | Paging.Spec.Fifo -> Ref_replacement.fifo ()
  | Lru -> Ref_replacement.lru ()
  | Clock -> Ref_replacement.clock_sweep ()
  | Random -> Ref_replacement.random rng
  | Nru -> Ref_replacement.nru rng
  | Lfu -> Ref_replacement.lfu ()
  | Atlas -> Ref_replacement.atlas_learning ()
  | M44 -> Ref_replacement.m44 rng
  | Working_set tau -> Ref_replacement.working_set ~tau
  | Opt -> Ref_replacement.opt trace

let collecting () =
  let events = ref [] in
  (Obs.Sink.collect (fun e -> events := e :: !events), fun () -> List.rev !events)

(* --- whole engine: Fault_sim over random traces --- *)

type engine_case = {
  spec : Paging.Spec.t;
  trace : int array;
  frames : int;
  seed : int;
  writes : bool array;
}

let engine_case_gen =
  let open QCheck.Gen in
  let* spec = oneofl specs in
  let* extent = frequency [ (1, return 1); (6, int_range 2 40) ] in
  let* len = int_range 0 300 in
  let* trace = array_size (return len) (int_bound (extent - 1)) in
  let* frames =
    frequency [ (1, return 1); (1, int_range extent (extent + 3)); (4, int_range 1 extent) ]
  in
  let* seed = int_bound 1_000_000 in
  let* density = int_range 0 4 in
  let+ writes = array_size (return len) (map (fun r -> r < density) (int_bound 3)) in
  { spec; trace; frames; seed; writes }

let print_engine_case c =
  Printf.sprintf "%s frames=%d seed=%d trace=[%s] writes=[%s]"
    (Paging.Spec.to_string c.spec) c.frames c.seed
    (String.concat ";" (Array.to_list (Array.map string_of_int c.trace)))
    (String.concat "" (Array.to_list (Array.map (fun w -> if w then "w" else ".") c.writes)))

let engine_agrees =
  QCheck.Test.make ~name:"flat Fault_sim and policies match the Hashtbl oracle" ~count:600
    (QCheck.make ~print:print_engine_case engine_case_gen)
    (fun c ->
      let run sim instantiate =
        let obs, events = collecting () in
        let policy = instantiate c.spec ~rng:(Sim.Rng.create c.seed) ~trace:c.trace in
        let r = sim ~obs ~frames:c.frames ~policy ~write:(fun i -> c.writes.(i)) c.trace in
        (r, events ())
      in
      let expected =
        run
          (fun ~obs -> Ref_fault_sim.run_writes ~obs)
          (fun spec ~rng ~trace -> ref_instantiate spec ~rng ~trace)
      in
      let got =
        run
          (fun ~obs -> Paging.Fault_sim.run_writes ~obs)
          (fun spec ~rng ~trace -> Paging.Spec.instantiate spec ~rng ~trace:(Some trace))
      in
      expected = got)

(* --- policies alone: random candidate subsets over sparse keys --- *)

type step = {
  kind : int;  (* 0..6 reference, 7 evict outside choose_victim *)
  key : int;
  write : bool;
  mask : int;  (* which residents are candidates; -1 = all *)
}

type policy_case = { frames : int; jobs : int; pages : int; seed : int; steps : step list }

let policy_case_gen =
  let open QCheck.Gen in
  let* frames = int_range 1 12 in
  let* jobs = int_range 1 4 in
  let* pages = int_range 1 64 in
  let* seed = int_bound 1_000_000 in
  let step =
    let* kind = int_bound 7 in
    let* key = int_bound 1_000 in
    let* write = bool in
    let+ mask = frequency [ (1, return (-1)); (1, int_bound 4095) ] in
    { kind; key; write; mask }
  in
  let+ steps = list_size (int_range 0 400) step in
  { frames; jobs; pages; seed; steps }

let print_policy_case c =
  Printf.sprintf "frames=%d jobs=%d pages=%d seed=%d steps=%d" c.frames c.jobs c.pages c.seed
    (List.length c.steps)

type decision = Victim of int | Released of int | Raised of string

(* Drive one policy through the steps the way a shared-pool engine
   does: keys are [job lsl 32 lor page]; a fault with every frame full
   offers the residents selected by the step's mask (ascending, as the
   contract requires) and evicts the victim; kind 7 evicts a resident
   without asking the policy, as Demand.advise_wont_need does. *)
let drive c (policy : Paging.Replacement.t) =
  let universe =
    Array.init (c.jobs * c.pages) (fun i -> ((i / c.pages) lsl 32) lor (i mod c.pages))
  in
  let resident = ref [] in
  let log = ref [] in
  let evict v =
    resident := List.filter (fun p -> p <> v) !resident;
    policy.on_evict ~page:v
  in
  (try
     List.iter
       (fun s ->
         if s.kind = 7 then begin
           match !resident with
           | [] -> ()
           | l ->
             let v = List.nth l (s.key mod List.length l) in
             evict v;
             log := Released v :: !log
         end
         else begin
           let k = universe.(s.key mod Array.length universe) in
           policy.on_reference ~page:k ~write:s.write;
           if not (List.mem k !resident) then begin
             if List.length !resident >= c.frames then begin
               let chosen = List.filteri (fun i _ -> s.mask land (1 lsl i) <> 0) !resident in
               let candidates = Array.of_list (if chosen = [] then !resident else chosen) in
               let v = policy.choose_victim ~candidates in
               if not (Array.mem v candidates) then failwith "victim is not a candidate";
               evict v;
               log := Victim v :: !log
             end;
             resident := List.sort compare (k :: !resident);
             policy.on_load ~page:k
           end
         end)
       c.steps
   with e -> log := Raised (Printexc.to_string e) :: !log);
  List.rev !log

let practical_pairs seed =
  let flat = Paging.Replacement.all_practical (Sim.Rng.create seed) in
  let reference = Ref_replacement.all_practical (Sim.Rng.create seed) in
  List.combine flat reference

let policies_agree =
  QCheck.Test.make ~name:"flat policies match the oracle on sparse candidate subsets"
    ~count:300
    (QCheck.make ~print:print_policy_case policy_case_gen)
    (fun c ->
      List.for_all
        (fun ((flat : Paging.Replacement.t), reference) ->
          let got = drive c flat and expected = drive c reference in
          if got <> expected then
            QCheck.Test.fail_reportf "%s diverges from the oracle" flat.name;
          not (List.exists (function Raised _ -> true | Victim _ | Released _ -> false) got))
        (practical_pairs c.seed))

(* --- the full-set victim path --- *)

(* How an engine drives [admit], against one policy (the full-set path
   on) and its scan-only twin:
   - [Whole_set]: one resident set, each load right after its
     reference, as in Fault_sim;
   - [Two_sets]: a bulk and a fast set under one shared policy, pages
     promoted from bulk to fast and demoted back without load or evict
     events, as in Hierarchy, so full-set answers often lie in the
     other set and the scan has to decide;
   - [Loads_tie]: loads without a fresh reference and releases outside
     [admit], so several resident pages carry one stamp. *)
type shape = Whole_set | Two_sets | Loads_tie

type full_case = { shape : shape; frames : int; fast : int; seed : int; ops : (int * int) list }

let full_case_gen =
  let open QCheck.Gen in
  let* shape = oneofl [ Whole_set; Two_sets; Loads_tie ] in
  let* pages = int_range 2 40 in
  let* frames = int_range 1 (pages + 2) in
  let* fast = int_range 1 6 in
  let* seed = int_bound 1_000_000 in
  let+ ops = list_size (int_range 0 400) (pair (int_bound 3) (int_bound (pages - 1))) in
  { shape; frames; fast; seed; ops }

let print_full_case c =
  Printf.sprintf "%s frames=%d fast=%d seed=%d ops=[%s]"
    (match c.shape with Whole_set -> "whole" | Two_sets -> "two" | Loads_tie -> "tie")
    c.frames c.fast c.seed
    (String.concat ";" (List.map (fun (k, p) -> Printf.sprintf "%d:%d" k p) c.ops))

(* The victims, demotions and releases of one run, in order; an
   exception ends the log. *)
let drive_full c (policy : Paging.Replacement.t) =
  let module R = Paging.Resident_slots in
  let bulk = R.create ~capacity:c.frames and fast = R.create ~capacity:c.fast in
  let log = ref [] in
  let note d = log := d :: !log in
  let admit page =
    let v = Paging.Replacement.admit policy bulk ~page in
    if v >= 0 then note (Victim v)
  in
  (try
     List.iter
       (fun (kind, page) ->
         match c.shape with
         | Whole_set ->
           policy.on_reference ~page ~write:(kind = 0);
           if not (R.mem bulk page) then admit page
         | Two_sets ->
           policy.on_reference ~page ~write:false;
           if R.mem bulk page then begin
             if kind land 1 = 1 then begin
               R.remove bulk page;
               if R.is_full fast then begin
                 let demoted = Paging.Replacement.victim policy fast in
                 R.remove fast demoted;
                 R.add bulk demoted;
                 note (Released demoted)
               end;
               R.add fast page
             end
           end
           else if not (R.mem fast page) then admit page
         | Loads_tie ->
           if kind = 3 then begin
             if R.mem bulk page then begin
               R.remove bulk page;
               policy.on_evict ~page;
               note (Released page)
             end
           end
           else begin
             if kind = 0 then policy.on_reference ~page ~write:false;
             if not (R.mem bulk page) then admit page
           end)
       c.ops
   with e -> note (Raised (Printexc.to_string e)));
  List.rev !log

(* Every practical policy on one set; on two sets only the LRU family,
   as Hierarchy uses it (a demotion is neither a load nor an eviction,
   which FIFO's and CLOCK's load order cannot follow). *)
let full_set_agrees =
  QCheck.Test.make ~name:"full-set victims match the scan" ~count:500
    (QCheck.make ~print:print_full_case full_case_gen)
    (fun c ->
      let policies () =
        match c.shape with
        | Two_sets -> Paging.Replacement.[ lru (); working_set ~tau:64 ]
        | Whole_set | Loads_tie -> Paging.Replacement.all_practical (Sim.Rng.create c.seed)
      in
      List.for_all2
        (fun (full : Paging.Replacement.t) (twin : Paging.Replacement.t) ->
          let got = drive_full c full and expected = drive_full c { twin with full_victim = None } in
          if got <> expected then QCheck.Test.fail_reportf "%s diverges from its scan" full.name;
          not (List.exists (function Raised _ -> true | Victim _ | Released _ -> false) got))
        (policies ()) (policies ()))

(* LRU's list answers every full-set victim of a single resident set,
   so the scan runs only where two sets share the policy. *)
let test_full_set_scans () =
  let rng = Sim.Rng.create 7 in
  let ops = List.init 3000 (fun _ -> (Sim.Rng.int rng 4, Sim.Rng.int rng 48)) in
  let scans shape =
    let lru = Paging.Replacement.lru () in
    let n = ref 0 in
    let counting =
      {
        lru with
        Paging.Replacement.choose_victim =
          (fun ~candidates ->
            incr n;
            lru.choose_victim ~candidates);
      }
    in
    let c = { shape; frames = 12; fast = 4; seed = 0; ops } in
    let victims = drive_full c counting in
    check_bool "victims match the scan" true
      (victims = drive_full c { (Paging.Replacement.lru ()) with full_victim = None });
    (!n, List.length victims)
  in
  let n, victims = scans Whole_set in
  check_bool "evicts" true (victims > 1000);
  check_int "no scan for one resident set" 0 n;
  let n, _ = scans Loads_tie in
  check_int "no scan when stamps tie" 0 n;
  let n, _ = scans Two_sets in
  check_bool "two sets fall back to the scan" true (n > 0)

(* After warm-up, a fault sequence through [admit] allocates nothing for
   the policies with per-page tables and no load-order queue. *)
let test_admit_allocates_nothing () =
  let rng = Sim.Rng.create 11 in
  let trace = Workload.Trace.zipf rng ~length:20_000 ~extent:96 ~skew:0.8 in
  List.iter
    (fun (policy : Paging.Replacement.t) ->
      let slots = Paging.Resident_slots.create ~capacity:24 in
      let pass () =
        for i = 0 to Array.length trace - 1 do
          let page = trace.(i) in
          policy.on_reference ~page ~write:(i land 3 = 0);
          if not (Paging.Resident_slots.mem slots page) then
            ignore (Paging.Replacement.admit policy slots ~page : int)
        done
      in
      pass ();
      let w0 = Gc.minor_words () in
      pass ();
      let w1 = Gc.minor_words () in
      Alcotest.(check (float 0.)) (policy.name ^ " minor words") 0. (w1 -. w0))
    (let r = Sim.Rng.create 3 in
     Paging.Replacement.
       [ lru (); working_set ~tau:64; nru (Sim.Rng.split r); m44 (Sim.Rng.split r); atlas_learning () ])

(* --- named paths --- *)

(* Run [script] against both implementations of a policy and return
   the flat one's decisions after checking they match. *)
let both make_flat make_ref script =
  let got = script (make_flat ()) and expected = script (make_ref ()) in
  Alcotest.(check (list int)) "flat = oracle" expected got;
  got

let test_fifo_skips () =
  let script (p : Paging.Replacement.t) =
    List.iter (fun page -> p.on_load ~page) [ 1; 2; 3 ];
    (* 1 is locked: skipped, and keeps its place at the head *)
    let a = p.choose_victim ~candidates:[| 2; 3 |] in
    p.on_evict ~page:a;
    p.on_load ~page:4;
    let b = p.choose_victim ~candidates:[| 1; 3; 4 |] in
    p.on_evict ~page:b;
    (* 3 leaves outside choose_victim, is loaded again, and its stale
       entry ahead of 4 is what the queue reaches first *)
    p.on_evict ~page:3;
    p.on_load ~page:3;
    let c = p.choose_victim ~candidates:[| 3; 4 |] in
    [ a; b; c ]
  in
  let got = both Paging.Replacement.fifo Ref_replacement.fifo script in
  Alcotest.(check (list int)) "victims" [ 2; 1; 3 ] got

let test_clock_skip_and_budget () =
  let script (p : Paging.Replacement.t) =
    List.iter (fun page -> p.on_load ~page) [ 1; 2; 3; 4; 5; 6 ];
    (* hand wraps onto [1..6]; nothing referenced, so 1 goes at once *)
    let a = p.choose_victim ~candidates:[| 1 |] in
    p.on_evict ~page:a;
    (* 8 and 7 join after the wrap, with their use bits set *)
    List.iter (fun page -> p.on_load ~page) [ 8; 7 ];
    p.on_reference ~page:8 ~write:false;
    p.on_reference ~page:7 ~write:false;
    (* The hand skips the five non-candidates left in its snapshot,
       wraps, skips them again, clears 8 and 7, wraps, and runs out of
       its 2 * (7 + 1) steps before reaching 8: the first candidate is
       taken, not the 8 a longer sweep would find. *)
    let b = p.choose_victim ~candidates:[| 7; 8 |] in
    p.on_evict ~page:b;
    (* a plain second-chance pick from the hand's current position *)
    let c = p.choose_victim ~candidates:[| 3; 8 |] in
    [ a; b; c ]
  in
  let got = both Paging.Replacement.clock_sweep Ref_replacement.clock_sweep script in
  Alcotest.(check (list int)) "victims" [ 1; 7; 8 ] got

let test_flat_table_growth () =
  let t = Paging.Flat_table.create ~absent:(-1) in
  let initial = Paging.Flat_table.capacity t in
  let key i = (i lsl 32) lor (i * 7) in
  for i = 0 to 999 do
    Paging.Flat_table.set t (key i) i
  done;
  check_bool "grew" true (Paging.Flat_table.capacity t >= 2 * 1000);
  check_bool "grew from the initial size" true (Paging.Flat_table.capacity t > initial);
  let all_found = ref true in
  for i = 0 to 999 do
    if Paging.Flat_table.find t (key i) <> i then all_found := false
  done;
  check_bool "every binding survives growth" true !all_found;
  check_int "unbound reads absent" (-1) (Paging.Flat_table.find t 5);
  let grown = Paging.Flat_table.capacity t in
  (* Removed keys are dropped at the next rehash, in place: the same
     number of live keys again neither grows the table nor allocates. *)
  let w0 = Gc.minor_words () in
  for round = 1 to 4 do
    for i = 0 to 999 do
      Paging.Flat_table.remove t (key (((round - 1) * 1000) + i))
    done;
    for i = 0 to 999 do
      Paging.Flat_table.set t (key ((round * 1000) + i)) i
    done
  done;
  let w1 = Gc.minor_words () in
  check_int "growth follows live keys" grown (Paging.Flat_table.capacity t);
  Alcotest.(check (float 0.)) "rehash in place allocates nothing" 0. (w1 -. w0);
  check_int "old key gone" (-1) (Paging.Flat_table.find t (key 3));
  check_int "new key bound" 3 (Paging.Flat_table.find t (key 4003));
  check_bool "min_int rejected" true
    (match Paging.Flat_table.set t min_int 1 with
     | () -> false
     | exception Invalid_argument _ -> true)

(* Model check against a Hashtbl: random set/remove/find over sparse
   keys.  Long, removal-heavy runs over a few hundred keys make the
   table drop absent keys in place many times over; after each run
   every key is compared, and the bindings must be the model's. *)
let flat_table_model =
  QCheck.Test.make ~name:"Flat_table agrees with a Hashtbl model" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 0 2000) (triple (int_bound 2) (int_bound 300) (int_bound 5)))
    (fun ops ->
      let t = Paging.Flat_table.create ~absent:0 and model = Hashtbl.create 16 in
      let key k = ((k mod 7) lsl 32) lor k in
      let want k = match Hashtbl.find_opt model k with Some v -> v | None -> 0 in
      List.for_all
        (fun (op, k, v) ->
          let k = key k in
          (match op with
           | 0 -> Paging.Flat_table.set t k v; Hashtbl.replace model k v
           | 1 -> Paging.Flat_table.remove t k; Hashtbl.remove model k
           | _ -> ());
          Paging.Flat_table.find t k = want k)
        ops
      && List.for_all (fun k -> Paging.Flat_table.find t (key k) = want (key k)) (List.init 301 Fun.id)
      && Array.to_list (Paging.Flat_table.bindings t)
         = List.sort compare
             (Hashtbl.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) model []))

(* The same model under churn: a window of at most [w] live keys over a
   few hundred, each set key removed [w] sets later, so the table keeps
   dropping absent keys in place at a small capacity.  Every key is
   compared after every step. *)
let flat_table_churn =
  QCheck.Test.make ~name:"Flat_table drops absent keys in place" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size Gen.(int_range 0 1500) (pair (int_bound 300) (int_range 1 5))))
    (fun (w, sets) ->
      let t = Paging.Flat_table.create ~absent:0 and model = Hashtbl.create 16 in
      let window = Queue.create () in
      let key k = ((k mod 5) lsl 32) lor k in
      let want k = match Hashtbl.find_opt model k with Some v -> v | None -> 0 in
      List.for_all
        (fun (k, v) ->
          let k = key k in
          Paging.Flat_table.set t k v;
          Hashtbl.replace model k v;
          Queue.add k window;
          if Queue.length window > w then begin
            let old = Queue.pop window in
            if not (Queue.fold (fun seen q -> seen || q = old) false window) then begin
              Paging.Flat_table.remove t old;
              Hashtbl.remove model old
            end
          end;
          List.for_all (fun k -> Paging.Flat_table.find t (key k) = want (key k)) (List.init 301 Fun.id))
        sets
      && Paging.Flat_table.capacity t <= 16 * (w + 1))

let resident_slots_model =
  QCheck.Test.make ~name:"Resident_slots stays the ascending member set" ~count:200
    QCheck.(pair (int_range 1 16) (list (pair bool (int_bound 40))))
    (fun (capacity, ops) ->
      let s = Paging.Resident_slots.create ~capacity and model = ref [] in
      List.for_all
        (fun (add, k) ->
          if add && (not (List.mem k !model)) && List.length !model < capacity then begin
            Paging.Resident_slots.add s k;
            model := List.sort compare (k :: !model)
          end
          else if (not add) && List.mem k !model then begin
            Paging.Resident_slots.remove s k;
            model := List.filter (fun p -> p <> k) !model
          end;
          let n = Paging.Resident_slots.size s in
          n = List.length !model
          && Array.to_list (Array.sub (Paging.Resident_slots.slots s) 0 n) = !model
          && Paging.Resident_slots.is_full s = (n = capacity)
          && Paging.Resident_slots.mem s k = List.mem k !model
          (* [filter] keeps the members it should, in order, and lends
             the backing array exactly when the set is full and all
             are kept *)
          &&
          let keep p = p mod 3 <> k mod 3 in
          let kept = Paging.Resident_slots.filter s ~keep in
          Array.to_list kept = List.filter keep !model
          && (kept == Paging.Resident_slots.slots s)
             = (n = capacity && List.for_all keep !model))
        ops)

let test_negative_page () =
  check_bool "negative page rejected" true
    (match Paging.Fault_sim.run ~frames:2 ~policy:(Paging.Replacement.lru ()) [| 0; -1 |] with
     | _ -> false
     | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "replacement"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest engine_agrees;
          QCheck_alcotest.to_alcotest policies_agree;
          Alcotest.test_case "FIFO skipped and stale entries" `Quick test_fifo_skips;
          Alcotest.test_case "CLOCK skip and budget fallback" `Quick test_clock_skip_and_budget;
        ] );
      ( "victim",
        [
          QCheck_alcotest.to_alcotest full_set_agrees;
          Alcotest.test_case "scans only where sets share a policy" `Quick test_full_set_scans;
          Alcotest.test_case "admit allocates nothing after warm-up" `Quick
            test_admit_allocates_nothing;
        ] );
      ( "flat",
        [
          Alcotest.test_case "table growth" `Quick test_flat_table_growth;
          QCheck_alcotest.to_alcotest flat_table_model;
          QCheck_alcotest.to_alcotest flat_table_churn;
          QCheck_alcotest.to_alcotest resident_slots_model;
          Alcotest.test_case "negative page" `Quick test_negative_page;
        ] );
    ]
