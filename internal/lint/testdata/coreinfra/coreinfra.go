// Package coreinfra seeds a transitive gdprboundary violation. The
// fixture test loads it under "fixture/internal/cache": it imports no
// identity-bearing package itself, but core does, so the import links
// identity into shared infrastructure all the same. testonlydep reaches
// session from its tests only, which its importers do not link: clean.
package coreinfra

import (
	"speedkit/internal/core" // want "reaches identity-bearing package"
	"speedkit/internal/lint/testdata/testonlydep"
)

var _ *core.Service

var _ = testonlydep.Size
