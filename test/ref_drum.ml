(* Reference drum: the sector-drum scheduler the library used before
   experiment X8 ran on Device.Model, kept verbatim as the oracle that
   the drum tests in test_memstore.ml run the device model against. *)

type policy =
  | Fifo_order
  | Shortest_access

type request = {
  id : int;
  arrival_us : int;
  sector : int;
}

type completion = {
  request : request;
  start_us : int;
  finish_us : int;
}

type t = { sectors : int; rotation_us : int; sector_us : int; policy : policy }

let create ~sectors ~rotation_us policy =
  assert (sectors > 0 && rotation_us > 0 && rotation_us mod sectors = 0);
  { sectors; rotation_us; sector_us = rotation_us / sectors; policy }

let sector_us t = t.sector_us

(* Earliest time >= [now] at which [sector] begins passing the heads. *)
let next_pass t ~now ~sector =
  let slot = now / t.sector_us in
  let phase = slot mod t.sectors in
  let delta = (sector - phase + t.sectors) mod t.sectors in
  let candidate = (slot + delta) * t.sector_us in
  if candidate >= now then candidate else candidate + t.rotation_us

let serve t requests =
  List.iter (fun r -> assert (r.sector >= 0 && r.sector < t.sectors)) requests;
  let pending = ref requests in
  let completions = ref [] in
  let now = ref 0 in
  while !pending <> [] do
    let arrived, future = List.partition (fun r -> r.arrival_us <= !now) !pending in
    match arrived with
    | [] ->
      (* Idle until the next arrival. *)
      now := List.fold_left (fun m r -> min m r.arrival_us) max_int future
    | first :: rest ->
      let better a b =
        match t.policy with
        | Fifo_order ->
          a.arrival_us < b.arrival_us || (a.arrival_us = b.arrival_us && a.id < b.id)
        | Shortest_access ->
          let pa = next_pass t ~now:!now ~sector:a.sector in
          let pb = next_pass t ~now:!now ~sector:b.sector in
          pa < pb || (pa = pb && a.id < b.id)
      in
      let chosen =
        List.fold_left (fun best r -> if better r best then r else best) first rest
      in
      let start_us = next_pass t ~now:!now ~sector:chosen.sector in
      let finish_us = start_us + t.sector_us in
      completions := { request = chosen; start_us; finish_us } :: !completions;
      now := finish_us;
      pending := List.filter (fun r -> r.id <> chosen.id) future
        @ List.filter (fun r -> r.id <> chosen.id) arrived
  done;
  List.rev !completions

let mean_latency_us completions =
  match completions with
  | [] -> 0.
  | _ :: _ ->
    let total =
      List.fold_left
        (fun acc c -> acc +. float_of_int (c.finish_us - c.request.arrival_us))
        0. completions
    in
    total /. float_of_int (List.length completions)
