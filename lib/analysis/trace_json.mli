(** Chrome trace_event export of a span forest.

    Load the output in chrome://tracing or ui.perfetto.dev.  Timestamps
    are microseconds of simulated time. *)

(** [export_spans ~sec_per_unit forest] renders an assembled forest
    ([Mcc_obs.Dtrace.assemble]) as correctly nested Chrome trace
    events.  Each root span is a thread lane on pid 0 with its subtree
    as nested ["X"] events; overlapping rpc legs export as async
    ["b"]/["e"] pairs; every engine (a captured compile, or a
    [Driver.compile] captured under a traced serve/farm run) becomes
    its own process with one lane per simulated processor for its run
    and barrier-wait spans and its tasks as async slices; fault
    instants are global ["i"] events.  The WatchTool activity view of
    paper Figures 4 and 7 is the processor lanes of a compile forest. *)
val export_spans : sec_per_unit:float -> Mcc_obs.Dtrace.t -> string
