type fabric_fault = [ `Drop | `Corrupt | `Duplicate | `Delay of int | `Reorder ]

type rule_state = {
  rule : Plan.rule;
  rng : Sim.Rng.t;
  mutable seen : int;  (* matching events offered to this rule *)
  mutable fired : int;
}

type t = { plan : Plan.t; rules : rule_state array }

let create (plan : Plan.t) =
  let root = Sim.Rng.create ~seed:plan.Plan.seed in
  let rules =
    Array.of_list
      (List.map (fun rule -> { rule; rng = Sim.Rng.split root; seen = 0; fired = 0 }) plan.Plan.rules)
  in
  { plan; rules }

let plan t = t.plan

let scope_matches scope ~ep =
  match scope with Plan.Anywhere -> true | Plan.Endpoint e -> e = ep

(* A rule's schedule is evaluated against its private event counter and
   rng stream. The rng draw happens even when a window is closed so a
   rule consumes state at the same rate regardless of simulated time —
   keeps replays stable if windows are edited. *)
let schedule_fires st ~now =
  st.seen <- st.seen + 1;
  match st.rule.Plan.schedule with
  | Plan.Probability p -> Sim.Rng.bool st.rng p
  | Plan.Window { from_ns; until_ns; p } ->
      let hit = Sim.Rng.bool st.rng p in
      hit && now >= from_ns && now < until_ns
  | Plan.Every_nth n -> st.seen mod n = 0
  | Plan.One_shot { at_event } -> st.seen = at_event

(* The classifiers: a rule's fault as the outcome one decision site acts
   on, or [None] when the rule is not for that site. *)
let fabric_fault = function
  | Plan.Drop -> Some `Drop
  | Plan.Corrupt -> Some `Corrupt
  | Plan.Duplicate -> Some `Duplicate
  | Plan.Delay { extra_ns } -> Some (`Delay extra_ns)
  | Plan.Reorder -> Some `Reorder
  | _ -> None

let completion_fault = function
  | Plan.Completion_loss -> Some `Lose
  | Plan.Completion_delay { extra_ns } -> Some (`Delay extra_ns)
  | _ -> None

let stall_fault = function
  | Plan.Slow_consumer { stall_ns } -> Some stall_ns
  | _ -> None

(* Evaluate rules in plan order; the first rule that fires wins and later
   rules do not observe the event. *)
let decide t ~now ~ep ~classify =
  let n = Array.length t.rules in
  let i = ref 0 and outcome = ref None in
  while !i < n do
    let st = t.rules.(!i) in
    incr i;
    match classify st.rule.Plan.fault with
    | Some _ as o when scope_matches st.rule.Plan.scope ~ep ->
        if schedule_fires st ~now then begin
          st.fired <- st.fired + 1;
          outcome := o;
          i := n
        end
    | _ -> ()
  done;
  !outcome

let fabric_decision t ~now ~dst = decide t ~now ~ep:dst ~classify:fabric_fault

let completion_decision t ~now ~ep =
  decide t ~now ~ep ~classify:completion_fault

let service_stall t ~now ~ep =
  match decide t ~now ~ep ~classify:stall_fault with
  | Some stall -> stall
  | None -> 0

let arena_windows t =
  Array.to_list t.rules
  |> List.filter_map (fun st ->
         match (st.rule.Plan.fault, st.rule.Plan.schedule) with
         | Plan.Arena_exhaust { soft_capacity }, Plan.Window { from_ns; until_ns; _ } ->
             Some (st.rule.Plan.scope, soft_capacity, from_ns, until_ns)
         | _ -> None)

let counters t =
  Array.to_list t.rules
  |> List.map (fun st -> (Plan.rule_to_string st.rule, st.seen, st.fired))

let fired t = Array.fold_left (fun acc st -> acc + st.fired) 0 t.rules
