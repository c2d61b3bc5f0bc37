package testonlydep

import "speedkit/internal/session"

var _ session.User
