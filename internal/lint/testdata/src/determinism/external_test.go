package determinism_test

import "time"

// An external test package of a deterministic-core package is held to the
// same bar as the package itself.
func externalSources() time.Time {
	return time.Now() // want "wall-clock read time.Now"
}
