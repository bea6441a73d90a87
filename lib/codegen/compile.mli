(** The compiler front end that the build-time generator
    ([bin/compile_schema.exe]) and [cornflakes_cli compile] share: read a
    schema file, parse it, report syntax errors, write the generated
    module and its ownership-IR sidecar. *)

(** [file ?output ?ir path] compiles the schema at [path]: the
    [.ml] to [output] (stdout when absent), the IR sidecar to [ir] when
    given. On [Error msg] (a parse or lex diagnostic) nothing is written. *)
val file :
  ?output:string -> ?ir:string -> string -> (Schema.Desc.t, string) result
