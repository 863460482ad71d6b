(* Tests for the freelist library: boundary-tag allocator, placement
   policies, compaction, buddy system, handle table. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_allocator ?(words = 1024) policy =
  let mem = Memstore.Physical.create ~name:"core" ~words in
  (mem, Freelist.Allocator.create mem ~base:0 ~len:words ~policy)

(* --- basic allocator behaviour --- *)

let test_alloc_free_roundtrip () =
  let _, a = make_allocator Freelist.Policy.First_fit in
  let addr = Option.get (Freelist.Allocator.alloc a 10) in
  check_bool "payload size at least request" true (Freelist.Allocator.payload_size a addr >= 10);
  check_int "live words" (Freelist.Allocator.payload_size a addr) (Freelist.Allocator.live_words a);
  check_int "live blocks" 1 (Freelist.Allocator.live_blocks a);
  Freelist.Allocator.validate a;
  Freelist.Allocator.free a addr;
  check_int "nothing live" 0 (Freelist.Allocator.live_words a);
  Freelist.Allocator.validate a;
  (* After freeing everything, one hole spans the region. *)
  Alcotest.(check (list int)) "one maximal hole" [ 1024 ] (Freelist.Allocator.free_block_sizes a)

let test_data_survives_neighbour_churn () =
  let mem, a = make_allocator Freelist.Policy.First_fit in
  let x = Option.get (Freelist.Allocator.alloc a 8) in
  let y = Option.get (Freelist.Allocator.alloc a 8) in
  for i = 0 to 7 do
    Memstore.Physical.write mem (x + i) (Int64.of_int (1000 + i));
    Memstore.Physical.write mem (y + i) (Int64.of_int (2000 + i))
  done;
  Freelist.Allocator.free a x;
  let z = Option.get (Freelist.Allocator.alloc a 4) in
  ignore z;
  for i = 0 to 7 do
    Alcotest.(check int64) "y intact" (Int64.of_int (2000 + i)) (Memstore.Physical.read mem (y + i))
  done

let test_coalescing_merges_all () =
  let _, a = make_allocator Freelist.Policy.First_fit in
  let addrs = List.init 8 (fun _ -> Option.get (Freelist.Allocator.alloc a 20)) in
  (* Free in an interleaved order to exercise prev-, next- and both-sided
     coalescing. *)
  List.iteri (fun i addr -> if i mod 2 = 0 then Freelist.Allocator.free a addr) addrs;
  Freelist.Allocator.validate a;
  List.iteri (fun i addr -> if i mod 2 = 1 then Freelist.Allocator.free a addr) addrs;
  Freelist.Allocator.validate a;
  Alcotest.(check (list int)) "fully coalesced" [ 1024 ] (Freelist.Allocator.free_block_sizes a)

let test_exhaustion_fails_cleanly () =
  let _, a = make_allocator ~words:64 Freelist.Policy.First_fit in
  check_bool "too big" true (Freelist.Allocator.alloc a 63 = None);
  check_int "failure recorded" 1 (Freelist.Allocator.failures a);
  let addr = Option.get (Freelist.Allocator.alloc a 62) in
  check_bool "whole region" true (Freelist.Allocator.alloc a 1 = None);
  Freelist.Allocator.free a addr;
  Freelist.Allocator.validate a

let test_free_bad_address_rejected () =
  let _, a = make_allocator Freelist.Policy.First_fit in
  let addr = Option.get (Freelist.Allocator.alloc a 10) in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "not an allocation" true (raises (fun () -> Freelist.Allocator.free a (addr + 1)));
  check_bool "outside region" true (raises (fun () -> Freelist.Allocator.free a 5000));
  Freelist.Allocator.free a addr;
  check_bool "double free" true (raises (fun () -> Freelist.Allocator.free a addr))

(* --- placement policies --- *)

let test_best_fit_picks_smallest () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.Best_fit in
  (* Carve holes of sizes ~100 and ~30 separated by live blocks. *)
  let h1 = Option.get (Freelist.Allocator.alloc a 100) in
  let p1 = Option.get (Freelist.Allocator.alloc a 10) in
  let h2 = Option.get (Freelist.Allocator.alloc a 30) in
  let p2 = Option.get (Freelist.Allocator.alloc a 10) in
  ignore p2;
  Freelist.Allocator.free a h1;
  Freelist.Allocator.free a h2;
  ignore p1;
  (* A 25-word request fits both holes; best fit must take the 30-hole,
     which is the higher-addressed one. *)
  let got = Option.get (Freelist.Allocator.alloc a 25) in
  check_int "reused the smaller hole" h2 got;
  Freelist.Allocator.validate a

let test_first_fit_picks_lowest () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.First_fit in
  let h1 = Option.get (Freelist.Allocator.alloc a 100) in
  let p1 = Option.get (Freelist.Allocator.alloc a 10) in
  let h2 = Option.get (Freelist.Allocator.alloc a 30) in
  let p2 = Option.get (Freelist.Allocator.alloc a 10) in
  ignore p1;
  ignore p2;
  Freelist.Allocator.free a h1;
  Freelist.Allocator.free a h2;
  let got = Option.get (Freelist.Allocator.alloc a 25) in
  check_int "reused the first hole" h1 got;
  Freelist.Allocator.validate a

let test_worst_fit_picks_largest () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.Worst_fit in
  let h1 = Option.get (Freelist.Allocator.alloc a 30) in
  let p1 = Option.get (Freelist.Allocator.alloc a 10) in
  let h2 = Option.get (Freelist.Allocator.alloc a 100) in
  let p2 = Option.get (Freelist.Allocator.alloc a 10) in
  (* Plug the tail so the trailing remainder is not the largest hole. *)
  let filler = Option.get (Freelist.Allocator.alloc a 3900) in
  ignore p1;
  ignore p2;
  ignore filler;
  Freelist.Allocator.free a h1;
  Freelist.Allocator.free a h2;
  let got = Option.get (Freelist.Allocator.alloc a 25) in
  check_int "took the big hole" h2 got;
  Freelist.Allocator.validate a

let test_two_ends_separates () =
  let _, a = make_allocator ~words:4096 (Freelist.Policy.Two_ends { small_max = 16 }) in
  let small = Option.get (Freelist.Allocator.alloc a 8) in
  let large = Option.get (Freelist.Allocator.alloc a 200) in
  check_bool "small low, large high" true (small < large);
  check_bool "large near the top" true (large > 4096 - 256);
  Freelist.Allocator.validate a;
  Freelist.Allocator.free a small;
  Freelist.Allocator.free a large;
  Freelist.Allocator.validate a

let test_next_fit_roves () =
  let _, a = make_allocator ~words:4096 Freelist.Policy.Next_fit in
  let x = Option.get (Freelist.Allocator.alloc a 10) in
  let y = Option.get (Freelist.Allocator.alloc a 10) in
  check_bool "successive allocations advance" true (y > x);
  Freelist.Allocator.validate a

(* Once its arrays have grown, the hole index allocates nothing per
   operation: over one request stream on a 64K-word region, each indexed
   policy allocates no more minor words than next fit's walk (the result
   boxes and search statistics both paths share), give or take a
   capacity doubling. *)
let test_index_allocates_nothing () =
  let words = 65_536 and n = 50_000 and slots = 600 in
  let st = Random.State.make [| 16 |] in
  let picks = Array.init (2 * n) (fun _ -> Random.State.int st slots) in
  let sizes = Array.init (2 * n) (fun _ -> 1 + Random.State.int st 100) in
  let minor_words policy =
    let _, a = make_allocator ~words policy in
    let live = Array.make slots (-1) in
    let step i =
      let k = picks.(i) in
      if live.(k) >= 0 then begin
        Freelist.Allocator.free a live.(k);
        live.(k) <- -1
      end
      else
        match Freelist.Allocator.alloc a sizes.(i) with
        | Some p -> live.(k) <- p
        | None -> Alcotest.fail "the stream fits the region"
    in
    for i = 0 to n - 1 do
      step i
    done;
    let w0 = Gc.minor_words () in
    for i = n to (2 * n) - 1 do
      step i
    done;
    Gc.minor_words () -. w0
  in
  let walked = minor_words Freelist.Policy.Next_fit in
  List.iter
    (fun policy ->
      let extra = minor_words policy -. walked in
      check_bool
        (Printf.sprintf "%s: %.0f words beyond the walk" (Freelist.Policy.to_string policy) extra)
        true (extra <= 1_000.))
    Freelist.Policy.[ First_fit; Best_fit; Worst_fit; Two_ends { small_max = 20 } ]

(* --- search cost --- *)

let test_search_stats_recorded () =
  let _, a = make_allocator Freelist.Policy.Best_fit in
  ignore (Freelist.Allocator.alloc a 5);
  ignore (Freelist.Allocator.alloc a 5);
  check_int "two searches" 2 (Metrics.Stats.count (Freelist.Allocator.search_stats a))

(* --- compaction --- *)

let test_compaction_consolidates_and_preserves () =
  let words = 2048 in
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy:Freelist.Policy.First_fit in
  let clock = Sim.Clock.create () in
  let chan = Memstore.Channel.create clock ~word_ns:500 in
  let handles = Freelist.Handle_table.create () in
  (* Allocate 20 blocks, fill each with a distinct pattern, free every
     other one to shatter the store. *)
  let blocks =
    List.init 20 (fun i ->
        let addr = Option.get (Freelist.Allocator.alloc a 16) in
        for k = 0 to 15 do
          Memstore.Physical.write mem (addr + k) (Int64.of_int ((i * 1000) + k))
        done;
        (i, addr))
  in
  let keep =
    List.filter_map
      (fun (i, addr) ->
        if i mod 2 = 0 then begin
          Freelist.Allocator.free a addr;
          None
        end
        else Some (i, Freelist.Handle_table.register handles addr))
      blocks
  in
  check_bool "store is shattered" true (List.length (Freelist.Allocator.free_block_sizes a) > 5);
  Freelist.Allocator.compact a chan ~relocate:(fun old_addr new_addr ->
      Freelist.Handle_table.relocate handles ~old_addr ~new_addr);
  Freelist.Allocator.validate a;
  Alcotest.(check int) "one hole after compaction" 1
    (List.length (Freelist.Allocator.free_block_sizes a));
  (* Every surviving block's contents are intact through its handle. *)
  List.iter
    (fun (i, h) ->
      let addr = Freelist.Handle_table.deref handles h in
      for k = 0 to 15 do
        Alcotest.(check int64) "content preserved" (Int64.of_int ((i * 1000) + k))
          (Memstore.Physical.read mem (addr + k))
      done)
    keep;
  check_bool "channel did work" true (Memstore.Channel.words_moved chan > 0);
  (* And the consolidated hole accepts a request no shard could. *)
  check_bool "big alloc now fits" true (Freelist.Allocator.alloc a 1500 <> None)

let test_compaction_empty_region () =
  let mem = Memstore.Physical.create ~name:"core" ~words:256 in
  let a = Freelist.Allocator.create mem ~base:0 ~len:256 ~policy:Freelist.Policy.First_fit in
  let clock = Sim.Clock.create () in
  let chan = Memstore.Channel.create clock ~word_ns:500 in
  Freelist.Allocator.compact a chan ~relocate:(fun _ _ -> Alcotest.fail "nothing to move");
  Freelist.Allocator.validate a

(* --- property tests --- *)

(* Random alloc/free interpreter that checks content integrity and
   invariants throughout. *)
let allocator_random_ops policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "random ops sound under %s" (Freelist.Policy.to_string policy))
    ~count:60
    QCheck.(list (pair bool (int_range 1 80)))
    (fun ops ->
      let words = 2048 in
      let mem = Memstore.Physical.create ~name:"core" ~words in
      let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
      let live = ref [] in
      let next_pattern = ref 0 in
      let fill addr n pat =
        for k = 0 to n - 1 do
          Memstore.Physical.write mem (addr + k) (Int64.of_int ((pat * 100_003) + k))
        done
      in
      let intact (addr, n, pat) =
        let ok = ref true in
        for k = 0 to n - 1 do
          if Memstore.Physical.read mem (addr + k) <> Int64.of_int ((pat * 100_003) + k) then
            ok := false
        done;
        !ok
      in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || !live = [] then begin
            match Freelist.Allocator.alloc a n with
            | Some addr ->
              let pat = !next_pattern in
              incr next_pattern;
              fill addr n pat;
              live := (addr, n, pat) :: !live
            | None -> ()
          end
          else begin
            match !live with
            | [] -> ()
            | entry :: rest ->
              if not (intact entry) then failwith "content corrupted";
              let addr, _, _ = entry in
              Freelist.Allocator.free a addr;
              live := rest
          end;
          Freelist.Allocator.validate a)
        ops;
      List.for_all intact !live)

let allocator_fill_then_drain policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "fill then drain returns all store under %s"
             (Freelist.Policy.to_string policy))
    ~count:30
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 60))
    (fun sizes ->
      let words = 8192 in
      let mem = Memstore.Physical.create ~name:"core" ~words in
      let a = Freelist.Allocator.create mem ~base:0 ~len:words ~policy in
      let addrs = List.filter_map (Freelist.Allocator.alloc a) sizes in
      List.iter (Freelist.Allocator.free a) addrs;
      Freelist.Allocator.validate a;
      Freelist.Allocator.free_block_sizes a = [ words ])

(* --- differential oracle: the library allocator against Ref_allocator --- *)

(* One step of a random stream: allocate [size] words, free the live
   object at index [pick mod live] (not the most recent one, so frees
   land beside allocated and free neighbours alike), or compact. *)
type oracle_op = Alloc of int | Free of int | Compact

type oracle_case = { policy : Freelist.Policy.t; words : int; ops : oracle_op list }

let oracle_case_gen =
  let open QCheck.Gen in
  let* policy =
    oneof
      [
        oneofl Freelist.Policy.[ First_fit; Next_fit; Best_fit; Worst_fit ];
        map (fun small_max -> Freelist.Policy.Two_ends { small_max }) (int_range 1 64);
      ]
  in
  (* Store sizes from 64 to 16K words, about log-uniform. *)
  let* octave = map (fun e -> 1 lsl e) (int_range 6 13) in
  let* words = map (fun extra -> octave + extra) (int_bound octave) in
  let* n = int_range 1 120 in
  let op =
    frequency
      [
        (6, map (fun s -> Alloc s) (frequency [ (4, int_range 1 24); (1, int_range 1 (words / 4)) ]));
        (5, map (fun i -> Free i) (int_bound 1_000_000));
        (1, return Compact);
      ]
  in
  let+ ops = list_repeat n op in
  { policy; words; ops }

let print_oracle_case c =
  Printf.sprintf "%s words=%d ops=[%s]" (Freelist.Policy.to_string c.policy) c.words
    (String.concat ";"
       (List.map
          (function Alloc s -> Printf.sprintf "a%d" s | Free i -> Printf.sprintf "f%d" i | Compact -> "c")
          c.ops))

(* Replay [c] into the library allocator and Ref_allocator side by side
   and fail at the first divergence: addresses, compaction moves, search
   statistics, free-block sizes, counters and events after every op, the
   whole store image after every [image_every]-th op, after every
   compaction and at the end.  Returns the most holes seen at once. *)
let replay_against_reference ~image_every { policy; words; ops } =
  let mem = Memstore.Physical.create ~name:"core" ~words in
  let ref_mem = Memstore.Physical.create ~name:"core" ~words in
  (* Both event streams since the last op that agreed, newest first. *)
  let events = ref [] and ref_events = ref [] in
  let a =
    Freelist.Allocator.create mem ~base:0 ~len:words ~policy
      ~obs:(Obs.Sink.collect (fun e -> events := e :: !events))
  in
  let r =
    Ref_allocator.create ref_mem ~base:0 ~len:words ~policy
      ~obs:(Obs.Sink.collect (fun e -> ref_events := e :: !ref_events))
  in
  let chan = Memstore.Channel.create (Sim.Clock.create ()) ~word_ns:1 in
  let ref_chan = Memstore.Channel.create (Sim.Clock.create ()) ~word_ns:1 in
  (* Payload addresses of live objects, in allocation order. *)
  let live = ref [||] in
  let most_holes = ref 0 in
  let agree what ok = if not ok then QCheck.Test.fail_reportf "%s diverges" what in
  let last = List.length ops - 1 in
  let step i op =
    (match op with
     | Alloc size ->
       let got = Freelist.Allocator.alloc a size in
       agree "alloc address" (got = Ref_allocator.alloc r size);
       Option.iter
         (fun p ->
           live := Array.append !live [| p |];
           (* A pattern in the payload's end words, which become stale
              words of a later hole. *)
           List.iter
             (fun q ->
               List.iter
                 (fun m -> Memstore.Physical.write m q (Int64.of_int (i * 7919)))
                 [ mem; ref_mem ])
             [ p; p + min 2 (size - 1); p + size - 1 ])
         got
     | Free pick ->
       let n = Array.length !live in
       if n > 0 then begin
         let k = pick mod n in
         let p = !live.(k) in
         Freelist.Allocator.free a p;
         Ref_allocator.free r p;
         live := Array.append (Array.sub !live 0 k) (Array.sub !live (k + 1) (n - k - 1))
       end
     | Compact ->
       let moves = ref [] and ref_moves = ref [] in
       Freelist.Allocator.compact a chan ~relocate:(fun o n' -> moves := (o, n') :: !moves);
       Ref_allocator.compact r ref_chan ~relocate:(fun o n' ->
           ref_moves := (o, n') :: !ref_moves);
       agree "compaction moves" (!moves = !ref_moves);
       live :=
         Array.map (fun p -> Option.value (List.assoc_opt p !moves) ~default:p) !live);
    Freelist.Allocator.validate a;
    let s = Freelist.Allocator.search_stats a and rs = Ref_allocator.search_stats r in
    agree "search count" (Metrics.Stats.count s = Metrics.Stats.count rs);
    agree "search total" (Float.equal (Metrics.Stats.total s) (Metrics.Stats.total rs));
    agree "search max" (Float.equal (Metrics.Stats.max s) (Metrics.Stats.max rs));
    let sizes = Freelist.Allocator.free_block_sizes a in
    agree "free block sizes" (sizes = Ref_allocator.free_block_sizes r);
    most_holes := max !most_holes (List.length sizes);
    agree "live words" (Freelist.Allocator.live_words a = Ref_allocator.live_words r);
    agree "failures" (Freelist.Allocator.failures a = Ref_allocator.failures r);
    agree "events" (!events = !ref_events);
    events := [];
    ref_events := [];
    if i mod image_every = 0 || op = Compact || i = last then
      for w = 0 to words - 1 do
        if Memstore.Physical.read mem w <> Memstore.Physical.read ref_mem w then
          QCheck.Test.fail_reportf "store word %d diverges after op %d" w i
      done
  in
  List.iteri step ops;
  !most_holes

let allocator_matches_reference =
  QCheck.Test.make ~name:"allocator matches the reference allocator word for word" ~count:300
    (QCheck.make ~print:print_oracle_case oracle_case_gen)
    (fun c ->
      let (_ : int) = replay_against_reference ~image_every:1 c in
      true)

(* Long streams of small requests on 16K-64K-word stores, so the hole
   index spans several leaves.  A fill phase of equal requests lays the
   objects out side by side (every policy carves them from one hole);
   freeing every other one (the [k]-th free of the live list in
   allocation order removes the [2k]-th original object) then leaves
   hundreds of isolated holes, and churn with the odd compaction
   follows. *)
let long_case_gen =
  let open QCheck.Gen in
  let* policy =
    oneof
      [
        oneofl Freelist.Policy.[ First_fit; Next_fit; Best_fit; Worst_fit ];
        map (fun small_max -> Freelist.Policy.Two_ends { small_max }) (int_range 1 24);
      ]
  in
  let* words = int_range 16_384 65_536 in
  let* fill = int_range (6 * Freelist.Hole_index.leaf_cap) (words / 32) in
  let* fill_size = int_range 1 24 in
  let* churn = int_range 300 1_500 in
  let op =
    frequency
      [
        (100, map (fun s -> Alloc s) (frequency [ (8, int_range 1 24); (1, int_range 1 (words / 8)) ]));
        (100, map (fun i -> Free i) (int_bound 1_000_000));
        (1, return Compact);
      ]
  in
  let* churn_ops = list_repeat churn op in
  return
    {
      policy;
      words;
      ops =
        List.init fill (fun _ -> Alloc fill_size)
        @ List.init (fill / 2) (fun k -> Free k)
        @ churn_ops;
    }

let print_long_case c =
  Printf.sprintf "%s words=%d ops=%d" (Freelist.Policy.to_string c.policy) c.words
    (List.length c.ops)

let allocator_matches_reference_on_long_streams =
  QCheck.Test.make ~name:"long streams match the reference allocator" ~count:12
    (QCheck.make ~print:print_long_case long_case_gen)
    (fun c ->
      let most_holes = replay_against_reference ~image_every:64 c in
      if most_holes < 3 * Freelist.Hole_index.leaf_cap then
        QCheck.Test.fail_reportf "only %d holes at once: the index never held three leaves"
          most_holes;
      true)

(* --- the hole index against a sorted list --- *)

type index_op =
  | Insert of int * int  (* offset, size *)
  | Remove of int  (* pick among the holes *)
  | Resize of int * int  (* pick, new size *)
  | Search of int  (* needed *)

let index_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun o s -> Insert (o, s)) (int_bound 20_000) (int_range 1 300));
      (3, map (fun k -> Remove k) (int_bound 1_000_000));
      (2, map2 (fun k s -> Resize (k, s)) (int_bound 1_000_000) (int_range 1 300));
      (3, map (fun n -> Search n) (int_range 1 320));
    ]

let print_index_op = function
  | Insert (o, s) -> Printf.sprintf "i%d/%d" o s
  | Remove k -> Printf.sprintf "r%d" k
  | Resize (k, s) -> Printf.sprintf "z%d/%d" k s
  | Search n -> Printf.sprintf "s%d" n

(* Up to 3000 ops, most of them inserts, so the index splits and merges
   leaves; every search, rank and neighbour is checked against a sorted
   association list, and the leaf structure after every op. *)
let hole_index_matches_sorted_list =
  QCheck.Test.make ~name:"hole index matches a sorted list" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map print_index_op ops))
       QCheck.Gen.(list_size (int_range 1 3_000) index_op_gen))
    (fun ops ->
      let module H = Freelist.Hole_index in
      let ix = H.create () in
      let model = ref [] in
      let agree what ok = if not ok then QCheck.Test.fail_reportf "%s diverges" what in
      let nth k = fst (List.nth !model (k mod List.length !model)) in
      let pos_of o =
        let p = H.locate ix o in
        agree "locate" (H.off ix p = o);
        p
      in
      let found what p expected =
        match expected with
        | None -> agree what (p = H.none)
        | Some (o, s) -> agree what (p <> H.none && H.off ix p = o && H.size ix p = s)
      in
      let step op =
        (match op with
         | Insert (o, s) ->
           if not (List.mem_assoc o !model) then begin
             let p = H.locate ix o in
             let below = List.filter (fun (o', _) -> o' < o) !model in
             let above = List.filter (fun (o', _) -> o' > o) !model in
             let last_below = List.fold_left (fun _ (o', _) -> o') H.none below in
             agree "offset before the slot" (H.off_before ix p = last_below);
             agree "offset at the slot"
               (H.off_from ix p = match above with (o', _) :: _ -> o' | [] -> H.none);
             H.insert ix p ~off:o ~size:s;
             model := below @ ((o, s) :: above)
           end
         | Remove k ->
           if !model <> [] then begin
             let o = nth k in
             H.remove ix (pos_of o);
             model := List.remove_assoc o !model
           end
         | Resize (k, s) ->
           if !model <> [] then begin
             let o = nth k in
             H.replace ix (pos_of o) ~off:o ~size:s;
             model := List.map (fun (o', s') -> if o' = o then (o', s) else (o', s')) !model
           end
         | Search needed ->
           let fits = List.filter (fun (_, s) -> s >= needed) !model in
           let pick better =
             List.fold_left
               (fun acc h -> match acc with Some a when not (better h a) -> acc | _ -> Some h)
               None fits
           in
           let p = H.first_fit ix needed in
           found "first fit" p (match fits with h :: _ -> Some h | [] -> None);
           (match fits with
            | (o, _) :: _ ->
              let rec rank i = function
                | (o', _) :: rest -> if o' = o then i else rank (i + 1) rest
                | [] -> i
              in
              agree "rank" (H.rank ix p = rank 0 !model)
            | [] -> ());
           found "best fit" (H.best_fit ix needed) (pick (fun (_, s) (_, s') -> s < s'));
           found "last fit" (H.last_fit ix needed) (pick (fun _ _ -> true));
           let largest = List.fold_left (fun m (_, s) -> max m s) 0 !model in
           found "worst fit" (H.worst_fit ix needed)
             (if largest < needed then None
              else List.find_opt (fun (_, s) -> s = largest) !model));
        H.validate ix;
        agree "holes" (H.holes ix = !model);
        agree "length" (H.length ix = List.length !model)
      in
      List.iter step ops;
      true)

(* --- buddy --- *)

let check_buddy_valid b =
  match Freelist.Buddy.validate b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "buddy invariant: %s" (Freelist.Buddy.describe_error e)

let test_buddy_basic () =
  let b = Freelist.Buddy.create ~words:256 in
  let x = Option.get (Freelist.Buddy.alloc b 10) in
  check_int "granted rounds up" 16 (Freelist.Buddy.granted_size 10);
  check_int "live granted" 16 (Freelist.Buddy.live_granted b);
  check_int "live requested" 10 (Freelist.Buddy.live_requested b);
  check_buddy_valid b;
  Freelist.Buddy.free b x;
  check_int "all free" 256 (Freelist.Buddy.free_words b);
  check_int "merged back" 256 (Freelist.Buddy.largest_free b);
  check_buddy_valid b

let test_buddy_split_and_merge () =
  let b = Freelist.Buddy.create ~words:64 in
  let xs = List.init 4 (fun _ -> Option.get (Freelist.Buddy.alloc b 16)) in
  check_int "exhausted" 0 (Freelist.Buddy.free_words b);
  check_bool "no more" true (Freelist.Buddy.alloc b 1 = None);
  List.iter (Freelist.Buddy.free b) xs;
  check_int "fully merged" 64 (Freelist.Buddy.largest_free b);
  check_buddy_valid b

let test_buddy_double_free_rejected () =
  let b = Freelist.Buddy.create ~words:64 in
  let x = Option.get (Freelist.Buddy.alloc b 8) in
  Freelist.Buddy.free b x;
  check_bool "double free" true
    (match Freelist.Buddy.free b x with
     | () -> false
     | exception Invalid_argument _ -> true)

let buddy_random_ops =
  QCheck.Test.make ~name:"buddy random ops keep invariants" ~count:80
    QCheck.(list (pair bool (int_range 1 64)))
    (fun ops ->
      let b = Freelist.Buddy.create ~words:512 in
      let live = ref [] in
      List.iter
        (fun (do_alloc, n) ->
          if do_alloc || !live = [] then begin
            match Freelist.Buddy.alloc b n with
            | Some off -> live := off :: !live
            | None -> ()
          end
          else begin
            match !live with
            | off :: rest ->
              Freelist.Buddy.free b off;
              live := rest
            | [] -> ()
          end;
          check_buddy_valid b)
        ops;
      List.iter (Freelist.Buddy.free b) !live;
      check_buddy_valid b;
      Freelist.Buddy.largest_free b = 512)

(* --- handle table --- *)

let test_handle_table () =
  let t = Freelist.Handle_table.create () in
  let h1 = Freelist.Handle_table.register t 100 in
  let h2 = Freelist.Handle_table.register t 200 in
  check_int "deref h1" 100 (Freelist.Handle_table.deref t h1);
  check_int "live" 2 (Freelist.Handle_table.live t);
  Freelist.Handle_table.relocate t ~old_addr:100 ~new_addr:150;
  check_int "relocated" 150 (Freelist.Handle_table.deref t h1);
  check_int "other untouched" 200 (Freelist.Handle_table.deref t h2);
  Freelist.Handle_table.release t h1;
  check_int "live after release" 1 (Freelist.Handle_table.live t);
  check_bool "dead handle rejected" true
    (match Freelist.Handle_table.deref t h1 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  (* Slot reuse must not resurrect the old handle's target. *)
  let h3 = Freelist.Handle_table.register t 300 in
  check_int "new handle works" 300 (Freelist.Handle_table.deref t h3)

let () =
  Alcotest.run "freelist"
    [
      ( "allocator",
        [
          Alcotest.test_case "roundtrip" `Quick test_alloc_free_roundtrip;
          Alcotest.test_case "data survives churn" `Quick test_data_survives_neighbour_churn;
          Alcotest.test_case "coalescing" `Quick test_coalescing_merges_all;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion_fails_cleanly;
          Alcotest.test_case "bad free rejected" `Quick test_free_bad_address_rejected;
          Alcotest.test_case "search stats" `Quick test_search_stats_recorded;
        ] );
      ( "placement",
        [
          Alcotest.test_case "best fit" `Quick test_best_fit_picks_smallest;
          Alcotest.test_case "first fit" `Quick test_first_fit_picks_lowest;
          Alcotest.test_case "worst fit" `Quick test_worst_fit_picks_largest;
          Alcotest.test_case "two ends" `Quick test_two_ends_separates;
          Alcotest.test_case "next fit" `Quick test_next_fit_roves;
          Alcotest.test_case "index allocates nothing" `Quick test_index_allocates_nothing;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "consolidates+preserves" `Quick test_compaction_consolidates_and_preserves;
          Alcotest.test_case "empty region" `Quick test_compaction_empty_region;
        ] );
      ( "properties",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest p)
          [
            allocator_random_ops Freelist.Policy.First_fit;
            allocator_random_ops Freelist.Policy.Next_fit;
            allocator_random_ops Freelist.Policy.Best_fit;
            allocator_random_ops Freelist.Policy.Worst_fit;
            allocator_random_ops (Freelist.Policy.Two_ends { small_max = 20 });
            allocator_fill_then_drain Freelist.Policy.First_fit;
            allocator_fill_then_drain Freelist.Policy.Best_fit;
            allocator_fill_then_drain (Freelist.Policy.Two_ends { small_max = 20 });
            buddy_random_ops;
          ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest allocator_matches_reference;
          QCheck_alcotest.to_alcotest allocator_matches_reference_on_long_streams;
          QCheck_alcotest.to_alcotest hole_index_matches_sorted_list;
        ] );
      ( "buddy",
        [
          Alcotest.test_case "basic" `Quick test_buddy_basic;
          Alcotest.test_case "split+merge" `Quick test_buddy_split_and_merge;
          Alcotest.test_case "double free" `Quick test_buddy_double_free_rejected;
        ] );
      ("handle_table", [ Alcotest.test_case "lifecycle" `Quick test_handle_table ]);
    ]
