// Package session models the users whose personalized content the system
// caches: identity, locale, consent, shopping cart, and browsing history.
// The generator is deterministic so that every experiment sees the same
// user population for a given seed.
package session

import (
	"fmt"
	"math/rand"
	"sync"

	"speedkit/internal/netsim"
)

// CartItem is one line in a user's shopping cart.
type CartItem struct {
	ProductID string
	Quantity  int
}

// User is the on-device user state the GDPR-compliant proxy keeps local.
type User struct {
	ID     string
	Name   string
	Email  string
	Region netsim.Region
	// Tier is the loyalty segment ("standard", "silver", "gold"); it
	// drives personalized pricing blocks.
	Tier string
	// LoggedIn distinguishes identified users from anonymous visitors.
	LoggedIn bool
	// ConsentPersonalization records the user's personalization opt-in.
	ConsentPersonalization bool
	// ConsentAnalytics records the analytics opt-in.
	ConsentAnalytics bool

	mu      sync.Mutex
	cart    []CartItem // guarded by mu
	history []string   // guarded by mu
}

// Cart returns a copy of the user's cart.
func (u *User) Cart() []CartItem {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]CartItem, len(u.cart))
	copy(out, u.cart)
	return out
}

// AddToCart adds quantity of the product (merging lines per product).
func (u *User) AddToCart(productID string, quantity int) {
	if quantity <= 0 {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	for i := range u.cart {
		if u.cart[i].ProductID == productID {
			u.cart[i].Quantity += quantity
			return
		}
	}
	u.cart = append(u.cart, CartItem{ProductID: productID, Quantity: quantity})
}

// CartSize returns the total item count in the cart.
func (u *User) CartSize() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	n := 0
	for _, it := range u.cart {
		n += it.Quantity
	}
	return n
}

// ClearCart empties the cart (checkout).
func (u *User) ClearCart() {
	u.mu.Lock()
	u.cart = nil
	u.mu.Unlock()
}

// RecordView appends a product to the browsing history, keeping the most
// recent 20 entries.
func (u *User) RecordView(productID string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.history = append(u.history, productID)
	if len(u.history) > 20 {
		u.history = u.history[len(u.history)-20:]
	}
}

// AppendRecent appends the k most recent entries of the browsing history,
// oldest first, to dst and returns the extended slice. They are copied
// under the lock, so a caller that passes an array with room for k keeps
// no view of the history and allocates nothing.
func (u *User) AppendRecent(dst []string, k int) []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	h := u.history
	if k < len(h) {
		h = h[len(h)-max(k, 0):]
	}
	return append(dst, h...)
}

// tiers in generation proportion order.
var tiers = []string{"standard", "standard", "standard", "silver", "gold"}

// Generate creates a deterministic user i in the given region. Roughly
// 60% of generated users are logged in and 80% of those consent to
// personalization, matching e-commerce field distributions.
func Generate(rng *rand.Rand, i int, region netsim.Region) *User {
	loggedIn := rng.Float64() < 0.6
	u := &User{
		ID:       fmt.Sprintf("u%06d", i),
		Region:   region,
		Tier:     tiers[rng.Intn(len(tiers))],
		LoggedIn: loggedIn,
	}
	if loggedIn {
		u.Name = fmt.Sprintf("User %d", i)
		u.Email = fmt.Sprintf("user%d@example.com", i)
		u.ConsentPersonalization = rng.Float64() < 0.8
		u.ConsentAnalytics = rng.Float64() < 0.5
	}
	return u
}

// PopulationRNG generates n users spread across the canonical regions,
// drawing every random decision from the injected source. Callers that
// need several deterministic populations inside one experiment share a
// single seeded *rand.Rand across calls.
func PopulationRNG(rng *rand.Rand, n int) []*User {
	regions := netsim.Regions()
	users := make([]*User, n)
	for i := range users {
		users[i] = Generate(rng, i, regions[i%len(regions)])
	}
	return users
}

// Population generates n users deterministically from seed. It is
// PopulationRNG with a freshly seeded source, so the populations are
// byte-identical for a given seed no matter which entry point is used.
func Population(seed int64, n int) []*User {
	return PopulationRNG(rand.New(rand.NewSource(seed)), n)
}
