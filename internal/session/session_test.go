package session

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"speedkit/internal/netsim"
)

func TestCartOperations(t *testing.T) {
	u := &User{ID: "u1"}
	u.AddToCart("p1", 2)
	u.AddToCart("p2", 1)
	u.AddToCart("p1", 3) // merges
	u.AddToCart("p3", 0) // ignored
	u.AddToCart("p3", -1)

	cart := u.Cart()
	if len(cart) != 2 {
		t.Fatalf("cart lines = %d, want 2", len(cart))
	}
	if cart[0].ProductID != "p1" || cart[0].Quantity != 5 {
		t.Fatalf("p1 line = %+v", cart[0])
	}
	if u.CartSize() != 6 {
		t.Fatalf("cart size = %d", u.CartSize())
	}
	u.ClearCart()
	if u.CartSize() != 0 {
		t.Fatal("clear failed")
	}
}

func TestCartCopyIsolation(t *testing.T) {
	u := &User{ID: "u1"}
	u.AddToCart("p1", 1)
	c := u.Cart()
	c[0].Quantity = 99
	if u.Cart()[0].Quantity != 1 {
		t.Fatal("Cart returns aliased slice")
	}
}

func TestHistoryBounded(t *testing.T) {
	u := &User{ID: "u1"}
	for i := 0; i < 30; i++ {
		u.RecordView("p")
	}
	if h := u.AppendRecent(nil, 30); len(h) != 20 {
		t.Fatalf("history len = %d, want 20", len(h))
	}
}

func TestHistoryOrder(t *testing.T) {
	u := &User{ID: "u1"}
	u.RecordView("a")
	u.RecordView("b")
	u.RecordView("c")
	for _, c := range []struct {
		k    int
		want string
	}{{-1, ""}, {0, ""}, {2, "b c"}, {3, "a b c"}, {20, "a b c"}} {
		if got := strings.Join(u.AppendRecent(nil, c.k), " "); got != c.want {
			t.Errorf("AppendRecent(nil, %d) = %q, want %q", c.k, got, c.want)
		}
	}
	var buf [4]string
	h := u.AppendRecent(buf[:1], 2)
	if len(h) != 3 || &h[0] != &buf[0] || h[1] != "b" {
		t.Fatalf("AppendRecent into a buffer with room = %v, want it appended in place", h)
	}
	h[1] = "mutated"
	if u.AppendRecent(nil, 2)[0] != "b" {
		t.Fatal("AppendRecent returns an aliased slice")
	}
	if n := testing.AllocsPerRun(100, func() { u.AppendRecent(buf[:0], 4) }); n != 0 {
		t.Fatalf("AppendRecent into a buffer with room allocates %.0f", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(1)), 7, netsim.EU)
	b := Generate(rand.New(rand.NewSource(1)), 7, netsim.EU)
	if a.ID != b.ID || a.LoggedIn != b.LoggedIn || a.Tier != b.Tier ||
		a.ConsentPersonalization != b.ConsentPersonalization {
		t.Fatal("same-seed generation diverged")
	}
}

func TestGenerateAnonymousUsersHaveNoPII(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		u := Generate(rng, i, netsim.US)
		if !u.LoggedIn && (u.Name != "" || u.Email != "" || u.ConsentPersonalization) {
			t.Fatalf("anonymous user %d carries identity: %+v", i, u)
		}
		if u.LoggedIn && (u.Name == "" || u.Email == "") {
			t.Fatalf("logged-in user %d missing identity", i)
		}
	}
}

// renderUser flattens every generated field so population comparisons are
// byte-exact, not just field-subset checks.
func renderUser(u *User) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%t|%t|%t",
		u.ID, u.Name, u.Email, u.Region, u.Tier,
		u.LoggedIn, u.ConsentPersonalization, u.ConsentAnalytics)
}

func TestPopulationByteIdenticalForSeed(t *testing.T) {
	const seed, n = 7, 120
	a := Population(seed, n)
	b := PopulationRNG(rand.New(rand.NewSource(seed)), n)
	c := Population(seed, n)
	for i := range a {
		ra, rb, rc := renderUser(a[i]), renderUser(b[i]), renderUser(c[i])
		if ra != rb {
			t.Fatalf("user %d differs between Population and PopulationRNG:\n %s\n %s", i, ra, rb)
		}
		if ra != rc {
			t.Fatalf("user %d differs across Population runs:\n %s\n %s", i, ra, rc)
		}
	}
}

// TestPopulationGolden pins the generated population against a recorded
// digest so that refactors of the generator cannot silently reshuffle the
// user base every experiment is seeded with.
func TestPopulationGolden(t *testing.T) {
	h := sha256.New()
	for _, u := range Population(42, 50) {
		fmt.Fprintln(h, renderUser(u))
	}
	const want = "08ed1400199b92197ff9f76a3bc5d4a9b9873e33657a326726771347a33c74e6"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("population digest for seed 42 = %s, want %s", got, want)
	}
}

func TestPopulationDistribution(t *testing.T) {
	users := Population(1, 3000)
	if len(users) != 3000 {
		t.Fatalf("len = %d", len(users))
	}
	loggedIn, consent := 0, 0
	regions := map[netsim.Region]int{}
	for _, u := range users {
		if u.LoggedIn {
			loggedIn++
			if u.ConsentPersonalization {
				consent++
			}
		}
		regions[u.Region]++
	}
	// ~60% logged in, ~80% of those consenting.
	if loggedIn < 1600 || loggedIn > 2000 {
		t.Fatalf("logged in = %d, want ~1800", loggedIn)
	}
	if ratio := float64(consent) / float64(loggedIn); ratio < 0.7 || ratio > 0.9 {
		t.Fatalf("consent ratio = %v, want ~0.8", ratio)
	}
	for _, r := range netsim.Regions() {
		if regions[r] != 1000 {
			t.Fatalf("region %s count = %d", r, regions[r])
		}
	}
	// IDs must be unique.
	seen := map[string]bool{}
	for _, u := range users {
		if seen[u.ID] {
			t.Fatalf("duplicate ID %s", u.ID)
		}
		seen[u.ID] = true
	}
}
