// Nested module holding the boolqd benchmark (see README.md here). It is
// its own module so the root module's build, vet and lint never compile
// it and a later PR cannot change it by editing the root build; the
// replace directive lets it import repro/internal/... (Go checks internal
// visibility by import path, and repro/bench/... sits under repro/).
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
