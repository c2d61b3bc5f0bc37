// Package testonlydep reaches identity from its tests only. The coreinfra
// fixture imports it: a dependency's tests are not linked into its
// importers, so the import is clean.
package testonlydep

// Size is what coreinfra uses of it.
const Size = 1
