type result = {
  returned : (int * float) list;
  total_mj : float;
  per_node_mj : float array;
  latency_s : float;
  unicasts : int;
  reroutes : int;
  retransmissions : int;
  dark : int list;
  give_ups : (int * float) list;
  gave_up_frames : int;
}

type msg = Trigger | Values of (int * float) list

let take = Exec.take_prefix

(* Nodes cut off by a dead link are dark: the whole subtree under the
   unreachable endpoint.  Collected in event order (deterministic per
   seed), reported sorted and deduplicated. *)
let darkness topo =
  let acc = ref [] in
  let mark node =
    acc := List.rev_append (Sensor.Topology.descendants topo node) !acc
  in
  let get () = List.sort_uniq Int.compare !acc in
  (mark, get)

let collect topo mica ?fault ?policy plan ~k ~readings =
  if Array.length readings <> topo.Sensor.Topology.n then
    invalid_arg "Simnet_exec.collect: readings length mismatch";
  let root = topo.Sensor.Topology.root in
  let payload_bytes = function
    | Trigger -> 0
    | Values vs -> List.length vs * mica.Sensor.Mica2.bytes_per_value
  in
  let engine =
    Simnet.Engine.create topo mica ?fault ?policy ~payload_bytes ()
  in
  let n = topo.Sensor.Topology.n in
  let participating_children =
    Array.init n (fun u ->
        Array.to_list topo.Sensor.Topology.children.(u)
        |> List.filter (fun c -> Plan.bandwidth plan c > 0))
  in
  let pending = Array.init n (fun u -> List.length participating_children.(u)) in
  let inbox = Array.make n [] in
  let answer = ref [] in
  let mark_dark, dark = darkness topo in
  (* Give-up instants in event order: (unreachable endpoint, sim time).
     One entry per handler invocation, so detection latency is
     measurable per node rather than inferred from the final dark set. *)
  let give_ups = ref [] in
  let report api u =
    let pool =
      List.sort Exec.value_order ((u, readings.(u)) :: inbox.(u))
    in
    if u = root then answer := take k pool
    else
      api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u)
        (Values (take (Plan.bandwidth plan u) pool))
  in
  for u = 0 to n - 1 do
    if u = root || Plan.bandwidth plan u > 0 then begin
      Simnet.Engine.on_message engine ~node:u (fun api ~src msg ->
          match msg with
          | Trigger ->
              let kids = participating_children.(u) in
              if kids = [] then report api u
              else api.Simnet.Engine.multicast ~dsts:kids Trigger
          | Values vs ->
              ignore src;
              inbox.(u) <- List.rev_append vs inbox.(u);
              pending.(u) <- pending.(u) - 1;
              if pending.(u) = 0 then report api u);
      (* Degradation: an unreachable child's subtree goes dark and the
         collection proceeds without it; an unreachable parent orphans this
         node's whole branch. *)
      Simnet.Engine.on_give_up engine ~node:u (fun api ~dst msg ->
          give_ups := (dst, api.Simnet.Engine.time ()) :: !give_ups;
          mark_dark dst;
          match msg with
          | Trigger ->
              pending.(u) <- pending.(u) - 1;
              if pending.(u) = 0 then report api u
          | Values _ -> ())
    end
  done;
  Simnet.Engine.inject engine ~node:root Trigger;
  let latency = Simnet.Engine.run engine in
  {
    returned = !answer;
    total_mj = Simnet.Engine.total_energy engine;
    per_node_mj =
      Array.init n (fun i -> Simnet.Engine.energy_of engine i);
    latency_s = latency;
    unicasts = Simnet.Engine.unicasts_sent engine;
    reroutes = Simnet.Engine.reroutes engine;
    retransmissions = Simnet.Engine.retransmissions_sent engine;
    dark = dark ();
    give_ups = List.rev !give_ups;
    gave_up_frames = Simnet.Engine.gave_up engine;
  }
