(* Multicore chaos: the supervised sharded engines under seeded
   shard-kill schedules.

   Each scenario is one recovery check (Parallel.Sharded.recovery_check):
   a small sharded workload runs fault-free at width 1 (the reference)
   and again supervised at the requested width under the round's kill
   schedule.  The supervised engine trace must be byte-identical to the
   reference — crashes, restarts and checkpoint resume are invisible in
   the observable record — and any divergence is surfaced as a counter
   the harness (and CI) can gate on. *)

let shards = 4
let steps ~quick = if quick then 150 else 600

(* 0-2 kills per shard keeps every schedule inside the default restart
   budget (3): chaos exercises recovery, escalation is a separate,
   deliberate test.  Progresses are sorted so attempt n's kill point
   never precedes attempt n-1's — later attempts resume at or before
   the earlier kill point, so each kill has a chance to fire.  A fifth
   of the kills stall instead of crashing. *)
let shard_schedule rng ~shards ~steps =
  assert (shards >= 1 && steps >= 1);
  List.concat
    (List.init shards (fun s ->
         let n = Sim.Rng.int rng 3 in
         let points =
           List.sort compare
             (List.init n (fun _ -> Sim.Rng.int_in rng 1 steps))
         in
         List.mapi
           (fun a p ->
             { Parallel.Supervisor.k_shard = s; k_attempt = a; k_progress = p;
               k_stall = Sim.Rng.int rng 5 = 0 })
           points))

(* The schedule is drawn even when [kills] overrides it, so every
   round's workload seed is the same with or without the override. *)
let draw ?kills ~quick rng =
  let drawn = shard_schedule rng ~shards ~steps:(steps ~quick) in
  Option.value kills ~default:drawn

let scenario ~name ~domains workload =
  {
    Resilience.Chaos.name;
    run =
      (fun ~seed ~fault:kills ->
        let r =
          Parallel.Sharded.recovery_check ~kills ~checkpoint_every:32 ~domains
            (workload seed)
        in
        let segments engine supervision =
          let config = "chaos sharded scenario=" ^ name in
          [
            { Resilience.Chaos.config; events = engine };
            { config = config ^ " supervision"; events = supervision };
          ]
        in
        match r.subject with
        | Error _ -> ([ ("escalated", 1); ("diverged", 0) ], segments [] [])
        | Ok s ->
          let sum f = Array.fold_left (fun acc o -> acc + f o) 0 s.rc_outcomes in
          ( [
              ("crashes", sum (fun (o : Parallel.Supervisor.outcome) -> o.o_crashes));
              ("restarts", sum (fun (o : Parallel.Supervisor.outcome) -> o.o_restarts));
              ( "checkpoints",
                sum (fun (o : Parallel.Supervisor.outcome) -> o.o_checkpoints) );
              ("escalated", 0);
              ("diverged", if r.identical then 0 else 1);
            ],
            segments (Array.to_list s.rc_events) (Array.to_list s.rc_supervision) ));
  }

let scenarios ?(quick = false) ?(domains = 2) () =
  let steps = steps ~quick in
  [
    scenario ~name:"par_alloc_supervised" ~domains (fun seed ->
        Parallel.Sharded.alloc
          (Parallel.Sharded.alloc_config ~shards ~ops_per_shard:steps
             ~slots_per_shard:64 ~slot_words:8 ~seed ()));
    scenario ~name:"par_paging_supervised" ~domains (fun seed ->
        Parallel.Sharded.paging
          (Parallel.Sharded.paging_config ~shards ~refs_per_shard:steps
             ~frames_per_shard:6 ~pages_per_shard:12 ~seed ()));
  ]
