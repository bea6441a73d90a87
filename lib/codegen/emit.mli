(** The Cornflakes compiler: emits OCaml accessor modules from a schema.

    This is the analogue of the paper's code-generation step (§3, Listing 1):
    from a message schema it produces, per message, a typed wrapper over the
    dynamic-message runtime with a constructor, setters, getters, repeated-
    field appenders, an in-place [reader] with its specialized validator
    [read_folded] (received frames are read where they lie, never parsed
    into a message object), a specialized [write_folded] serializer
    (constant-folded layout: literal bitmap + slot offsets behind one hoisted
    bounds check, falling back to the generic writer off the all-present
    path), and a combined [send] (serialize-and-send through the folded
    writer). Every payload setter builds its CFPtr with [Cf_ptr.make], so
    the copy/zero-copy decision is the caller's [Config.t] policy at run
    time, bounded field or not. The generated source depends only on the
    public [schema], [wire], [mem] and [cornflakes] libraries. {!Compile}
    is the front end the build rules and [cornflakes_cli compile] run. *)

(** [module_source ~schema_text schema] is the complete [.ml] source. *)
val module_source : schema_text:string -> Schema.Desc.t -> string

(** [ir_source schema] is the ownership-IR sidecar for the
    generated module: one [fn <Rel.Path> role=<role> callee=<Path|->] line
    per emitted binding. StatCheck's IR pass re-parses the generated [.ml]
    against this summary, so generated accessors are verified mechanically
    instead of hand-spec'd. *)
val ir_source : Schema.Desc.t -> string

(** [ocaml_name s] — a valid lower-case OCaml identifier for a field name. *)
val ocaml_name : string -> string
