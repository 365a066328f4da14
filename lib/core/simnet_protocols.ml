type result = {
  returned : (int * float) list;
  total_mj : float;
  per_node_mj : float array;
  latency_s : float;
  unicasts : int;
  retransmissions : int;
  dark : int list;
}

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

(* ---------------- NAIVE-1: the pull pipeline ---------------- *)

type pull_msg = Req | Resp of (int * float) option

(* Per-node pipeline state.  The heap holds at most one candidate per
   source (the node itself or a child); a popped child entry is refilled
   lazily when the next request arrives, as in the paper. *)
type puller = {
  mutable heap : (int * (int * float)) list;  (* (source, entry), best first *)
  mutable initialized : bool;
  mutable exhausted : int list;  (* children with nothing left *)
  mutable missing : int list;  (* children owing the heap an entry *)
  mutable pending : int;  (* outstanding child requests *)
  mutable serving : bool;  (* a parent request awaits our response *)
}

let naive_one topo mica ?fault ?policy ~k ~readings () =
  if k < 1 then invalid_arg "Simnet_protocols.naive_one: k must be positive";
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  let payload_bytes = function
    | Req | Resp None -> 0
    | Resp (Some _) -> mica.Sensor.Mica2.bytes_per_value
  in
  let engine =
    Simnet.Engine.create topo mica ?fault ?policy ~payload_bytes ()
  in
  let mark_dark, dark = darkness topo in
  let states =
    Array.init n (fun _ ->
        {
          heap = [];
          initialized = false;
          exhausted = [];
          missing = [];
          pending = 0;
          serving = false;
        })
  in
  let answer = ref [] and remaining = ref k in
  let heap_insert st source entry =
    st.heap <-
      List.sort
        (fun (_, a) (_, b) -> Exec.value_order a b)
        ((source, entry) :: st.heap)
  in
  (* Try to satisfy the current obligation of node [u]: refill missing
     child slots first, then pop and deliver. *)
  let rec progress api u =
    let st = states.(u) in
    if not st.initialized then begin
      st.initialized <- true;
      heap_insert st u (u, readings.(u));
      st.missing <- Array.to_list topo.Sensor.Topology.children.(u)
    end;
    let to_ask =
      List.filter (fun c -> not (List.mem c st.exhausted)) st.missing
    in
    st.missing <- [];
    List.iter
      (fun c ->
        st.pending <- st.pending + 1;
        api.Simnet.Engine.send ~dst:c Req)
      to_ask;
    if st.pending = 0 && st.serving then begin
      st.serving <- false;
      let popped =
        match st.heap with
        | [] -> None
        | (source, entry) :: rest ->
            st.heap <- rest;
            if source <> u then st.missing <- [ source ];
            Some entry
      in
      if u = root then begin
        (match popped with
        | Some entry ->
            answer := entry :: !answer;
            decr remaining
        | None -> remaining := 0);
        if !remaining > 0 then begin
          st.serving <- true;
          progress api u
        end
      end
      else api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u) (Resp popped)
    end
  in
  for u = 0 to n - 1 do
    Simnet.Engine.on_message engine ~node:u (fun api ~src msg ->
        let st = states.(u) in
        match msg with
        | Req ->
            st.serving <- true;
            progress api u
        | Resp r ->
            st.pending <- st.pending - 1;
            (match r with
            | Some entry -> heap_insert st src entry
            | None -> st.exhausted <- src :: st.exhausted);
            progress api u);
    (* Degradation: an unreachable child behaves like an exhausted one (it
       can contribute nothing more); an unreachable parent orphans this
       node's whole branch. *)
    Simnet.Engine.on_give_up engine ~node:u (fun api ~dst msg ->
        mark_dark dst;
        match msg with
        | Req ->
            let st = states.(u) in
            st.pending <- st.pending - 1;
            st.exhausted <- dst :: st.exhausted;
            progress api u
        | Resp _ -> ())
  done;
  states.(root).serving <- true;
  Simnet.Engine.inject engine ~node:root Req;
  (* The injected Req lands in the root's handler as [Req]. *)
  let latency = Simnet.Engine.run engine in
  {
    returned = List.rev !answer;
    total_mj = Simnet.Engine.total_energy engine;
    per_node_mj = Array.init n (fun i -> Simnet.Engine.energy_of engine i);
    latency_s = latency;
    unicasts = Simnet.Engine.unicasts_sent engine;
    retransmissions = Simnet.Engine.retransmissions_sent engine;
    dark = dark ();
  }

(* ---------------- proof-carrying collection ---------------- *)

type proof_result = { base : result; proven_count : int }

type proof_msg =
  | Trigger
  | PValues of {
      values : (int * float) list;  (* best first *)
      proven : int;  (* length of the proven prefix *)
      sent_all : bool;
    }

let proof_collect topo mica ?fault ?policy plan ~k ~readings () =
  if k < 1 then invalid_arg "Simnet_protocols.proof_collect: k must be positive";
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  for i = 0 to n - 1 do
    if i <> root && Plan.bandwidth plan i < 1 then
      invalid_arg "Simnet_protocols.proof_collect: proof plans use every edge"
  done;
  let payload_bytes = function
    | Trigger -> 0
    (* The proven count and flag ride in the header (the paper reserves a
       fixed cm allowance for them), so content is the values alone. *)
    | PValues { values; _ } ->
        List.length values * mica.Sensor.Mica2.bytes_per_value
  in
  let engine =
    Simnet.Engine.create topo mica ?fault ?policy ~payload_bytes ()
  in
  let mark_dark, dark = darkness topo in
  (* Per node: messages received so far, tagged by the child they came
     from, plus that child's proven prefix and sent_all flag. *)
  let inbox = Array.make n [] in
  let pending =
    Array.init n (fun u -> Array.length topo.Sensor.Topology.children.(u))
  in
  let answer = ref [] and root_proven = ref 0 in
  let ranks_above v w = Exec.value_order v w < 0 in
  let report api u =
    let children_info = inbox.(u) in
    let pool =
      List.concat_map
        (fun (child, values, proven, _) ->
          List.mapi (fun rank v -> (v, Some (child, rank < proven))) values)
        children_info
      @ [ ((u, readings.(u)), None) ]
    in
    let sorted = List.sort (fun (a, _) (b, _) -> Exec.value_order a b) pool in
    let cap = if u = root then k else Plan.bandwidth plan u in
    let sent = take cap sorted in
    (* A value is proven here iff every child certifies it. *)
    let proven_at (v, origin) =
      List.for_all
        (fun (child, values, proven, sent_all) ->
          let proven_values = take proven values in
          (match origin with
          | Some (c, was_proven) when c = child -> was_proven
          | _ -> false)
          || List.exists (fun w -> ranks_above v w) proven_values
          || sent_all)
        children_info
    in
    let rec proven_prefix = function
      | entry :: rest when proven_at entry -> 1 + proven_prefix rest
      | _ -> 0
    in
    let proven = proven_prefix sent in
    let values = List.map fst sent in
    if u = root then begin
      answer := values;
      root_proven := proven
    end
    else begin
      let sent_all =
        List.length values = topo.Sensor.Topology.subtree_size.(u)
      in
      api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u)
        (PValues { values; proven; sent_all })
    end
  in
  for u = 0 to n - 1 do
    Simnet.Engine.on_message engine ~node:u (fun api ~src msg ->
        match msg with
        | Trigger ->
            if pending.(u) = 0 then report api u
            else
              api.Simnet.Engine.multicast
                ~dsts:(Array.to_list topo.Sensor.Topology.children.(u))
                Trigger
        | PValues { values; proven; sent_all } ->
            inbox.(u) <- (src, values, proven, sent_all) :: inbox.(u);
            pending.(u) <- pending.(u) - 1;
            if pending.(u) = 0 then report api u);
    (* Degradation: an unreachable child counts as having sent an empty,
       unproven report — [sent_all = false] keeps provenness conservative
       (nothing can be certified against a dark subtree). *)
    Simnet.Engine.on_give_up engine ~node:u (fun api ~dst msg ->
        mark_dark dst;
        match msg with
        | Trigger ->
            inbox.(u) <- (dst, [], 0, false) :: inbox.(u);
            pending.(u) <- pending.(u) - 1;
            if pending.(u) = 0 then report api u
        | PValues _ -> ())
  done;
  Simnet.Engine.inject engine ~node:root Trigger;
  let latency = Simnet.Engine.run engine in
  {
    base =
      {
        returned = !answer;
        total_mj = Simnet.Engine.total_energy engine;
        per_node_mj = Array.init n (fun i -> Simnet.Engine.energy_of engine i);
        latency_s = latency;
        unicasts = Simnet.Engine.unicasts_sent engine;
        retransmissions = Simnet.Engine.retransmissions_sent engine;
        dark = dark ();
      };
    proven_count = !root_proven;
  }

(* ---------------- two-phase exact as messages ---------------- *)

type exact_result = {
  answer : (int * float) list;
  proven_after_phase1 : int;
  total_mj : float;
  latency_s : float;
  unicasts : int;
  retransmissions : int;
  dark : int list;
}

type bound = (int * float) option

type exact_msg =
  | XTrigger
  | XValues of { values : (int * float) list; proven : int; sent_all : bool }
  | MopReq of { c : int; lo : bound; hi : bound }
  | MopResp of (int * float) list

(* Mirrors Exact.in_range: strictly inside (lo, hi) under the value order. *)
let in_range ~lo ~hi v =
  (match hi with None -> true | Some h -> Exec.value_order h v < 0)
  && match lo with None -> true | Some l -> Exec.value_order v l < 0

let range_empty ~lo ~hi =
  match (lo, hi) with
  | Some l, Some h -> Exec.value_order h l >= 0
  | _ -> false

type exact_state = {
  (* phase 1 *)
  mutable inbox : (int * (int * float) list * int * bool) list;
  mutable pending : int;
  mutable retrieved : (int * float) list;  (* sorted, own value included *)
  mutable proven : (int * float) list;  (* the node's proven prefix *)
  mutable child_sent_all : (int * bool) list;
  (* phase 2 *)
  mutable mop_pending : int;
  mutable mop_acc : (int * float) list;
  mutable mop_c : int;
  mutable mop_lo : bound;
  mutable mop_hi : bound;
}

let dedup_by_origin values =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (i, _) ->
      if Hashtbl.mem seen i then false
      else begin
        Hashtbl.replace seen i ();
        true
      end)
    values

let exact topo mica ?fault ?policy plan ~k ~readings () =
  if k < 1 then invalid_arg "Simnet_protocols.exact: k must be positive";
  let n = topo.Sensor.Topology.n in
  let root = topo.Sensor.Topology.root in
  for i = 0 to n - 1 do
    if i <> root && Plan.bandwidth plan i < 1 then
      invalid_arg "Simnet_protocols.exact: proof plans use every edge"
  done;
  let bpv = mica.Sensor.Mica2.bytes_per_value in
  let payload_bytes = function
    | XTrigger -> 0
    | XValues { values; _ } -> List.length values * bpv
    | MopReq _ -> (2 * bpv) + 2
    | MopResp values -> List.length values * bpv
  in
  let engine =
    Simnet.Engine.create topo mica ?fault ?policy ~payload_bytes ()
  in
  let mark_dark, dark = darkness topo in
  let states =
    Array.init n (fun u ->
        {
          inbox = [];
          pending = Array.length topo.Sensor.Topology.children.(u);
          retrieved = [];
          proven = [];
          child_sent_all = [];
          mop_pending = 0;
          mop_acc = [];
          mop_c = 0;
          mop_lo = None;
          mop_hi = None;
        })
  in
  let answer = ref [] and root_proven = ref 0 in
  let ranks_above v w = Exec.value_order v w < 0 in
  (* ---- phase 1: proof-carrying collection, retaining state ---- *)
  let phase1_report api u =
    let st = states.(u) in
    let pool =
      List.concat_map
        (fun (child, values, proven, _) ->
          List.mapi (fun rank v -> (v, Some (child, rank < proven))) values)
        st.inbox
      @ [ ((u, readings.(u)), None) ]
    in
    let sorted = List.sort (fun (a, _) (b, _) -> Exec.value_order a b) pool in
    st.retrieved <- List.map fst sorted;
    st.child_sent_all <-
      List.map (fun (child, _, _, sent_all) -> (child, sent_all)) st.inbox;
    let cap = if u = root then k else Plan.bandwidth plan u in
    let sent = take cap sorted in
    let proven_at (v, origin) =
      List.for_all
        (fun (child, values, proven, sent_all) ->
          let proven_values = take proven values in
          (match origin with
          | Some (c, was_proven) when c = child -> was_proven
          | _ -> false)
          || List.exists (fun w -> ranks_above v w) proven_values
          || sent_all)
        st.inbox
    in
    let rec proven_prefix = function
      | entry :: rest when proven_at entry -> 1 + proven_prefix rest
      | _ -> 0
    in
    let proven = proven_prefix sent in
    let values = List.map fst sent in
    st.proven <- take proven values;
    if u = root then begin
      root_proven := proven;
      (* Start the mop-up, or finish outright. *)
      if proven >= k then answer := values
      else begin
        let lo = List.nth_opt st.retrieved (k - 1) in
        let hi =
          match List.rev st.proven with [] -> None | last :: _ -> Some last
        in
        let missing = k - proven in
        let targets =
          if range_empty ~lo ~hi then []
          else
            Array.to_list topo.Sensor.Topology.children.(root)
            |> List.filter (fun ch -> not (List.assoc ch st.child_sent_all))
        in
        if targets = [] then answer := take k st.retrieved
        else begin
          st.mop_pending <- List.length targets;
          st.mop_acc <- [];
          api.Simnet.Engine.multicast ~dsts:targets
            (MopReq { c = missing; lo; hi })
        end
      end
    end
    else begin
      let sent_all =
        List.length values = topo.Sensor.Topology.subtree_size.(u)
      in
      api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u)
        (XValues { values; proven; sent_all })
    end
  in
  (* ---- phase 2: range requests served from retained state ---- *)
  let mop_reply api u values =
    if u = root then
      answer :=
        take k
          (dedup_by_origin
             (List.sort Exec.value_order (states.(u).retrieved @ values)))
    else api.Simnet.Engine.send ~dst:topo.Sensor.Topology.parent.(u) (MopResp values)
  in
  let handle_mop_req api u ~c ~lo ~hi =
    let st = states.(u) in
    let known_in_range = List.filter (in_range ~lo ~hi) st.retrieved in
    let proven_in_range = List.filter (in_range ~lo ~hi) st.proven in
    if List.length proven_in_range >= c then
      mop_reply api u (take c known_in_range)
    else begin
      let pmin =
        match List.rev st.proven with [] -> None | last :: _ -> Some last
      in
      let hi' =
        match (hi, pmin) with
        | None, p -> p
        | h, None -> h
        | Some h, Some p -> if Exec.value_order h p < 0 then Some p else Some h
      in
      let lo' =
        match List.nth_opt known_in_range (c - 1) with
        | None -> lo
        | Some w -> (
            match lo with
            | None -> Some w
            | Some l -> if Exec.value_order w l < 0 then Some w else Some l)
      in
      let targets =
        if range_empty ~lo:lo' ~hi:hi' then []
        else
          Array.to_list topo.Sensor.Topology.children.(u)
          |> List.filter (fun ch -> not (List.assoc ch st.child_sent_all))
      in
      if targets = [] then mop_reply api u (take c known_in_range)
      else begin
        st.mop_pending <- List.length targets;
        st.mop_acc <- [];
        st.mop_c <- c;
        st.mop_lo <- lo;
        st.mop_hi <- hi;
        api.Simnet.Engine.multicast ~dsts:targets
          (MopReq { c; lo = lo'; hi = hi' })
      end
    end
  in
  let handle_mop_resp api u values =
    let st = states.(u) in
    st.mop_acc <- List.rev_append values st.mop_acc;
    st.mop_pending <- st.mop_pending - 1;
    if st.mop_pending = 0 then
      if u = root then mop_reply api u st.mop_acc
      else begin
        let known_in_range =
          List.filter (in_range ~lo:st.mop_lo ~hi:st.mop_hi) st.retrieved
        in
        let merged =
          dedup_by_origin
            (List.sort Exec.value_order (known_in_range @ st.mop_acc))
        in
        mop_reply api u (take st.mop_c merged)
      end
  in
  for u = 0 to n - 1 do
    Simnet.Engine.on_message engine ~node:u (fun api ~src msg ->
        let st = states.(u) in
        match msg with
        | XTrigger ->
            if st.pending = 0 then phase1_report api u
            else
              api.Simnet.Engine.multicast
                ~dsts:(Array.to_list topo.Sensor.Topology.children.(u))
                XTrigger
        | XValues { values; proven; sent_all } ->
            st.inbox <- (src, values, proven, sent_all) :: st.inbox;
            st.pending <- st.pending - 1;
            if st.pending = 0 then phase1_report api u
        | MopReq { c; lo; hi } -> handle_mop_req api u ~c ~lo ~hi
        | MopResp values -> handle_mop_resp api u values);
    (* Degradation: phase-1 treats an unreachable child as an empty,
       unproven report; a phase-2 range request to a dead subtree comes
       back empty (the subtree was already marked dark in phase 1). *)
    Simnet.Engine.on_give_up engine ~node:u (fun api ~dst msg ->
        let st = states.(u) in
        match msg with
        | XTrigger ->
            mark_dark dst;
            st.inbox <- (dst, [], 0, false) :: st.inbox;
            st.pending <- st.pending - 1;
            if st.pending = 0 then phase1_report api u
        | MopReq _ -> handle_mop_resp api u []
        | XValues _ | MopResp _ -> mark_dark dst)
  done;
  Simnet.Engine.inject engine ~node:root XTrigger;
  let latency = Simnet.Engine.run engine in
  {
    answer = !answer;
    proven_after_phase1 = !root_proven;
    total_mj = Simnet.Engine.total_energy engine;
    latency_s = latency;
    unicasts = Simnet.Engine.unicasts_sent engine;
    retransmissions = Simnet.Engine.retransmissions_sent engine;
    dark = dark ();
  }
