// The benchmark is a module of its own so that it builds from its own
// build file and the root module's `./...` patterns never see it. The
// module path stays under `repro/` because Go decides whether an
// `internal` package may be imported from the importer's *import path*:
// `repro/bench` may import `repro/internal/...`, resolved through the
// replace below to the checkout this directory sits in.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
