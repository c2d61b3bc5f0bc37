package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// The bodies the storefront renders are what every cache tier stores and
// every version stamp vouches for: a change to how documents are held
// must not move one byte of them. The digests were recorded at the commit
// before documents became query.Doc (maps, cloned per read), over the
// seeded catalog at both benchmark sizes plus one document that carries
// what the catalog does not: its own "id" field, a map nested two deep
// and a list.
func TestStorefrontBodiesGolden(t *testing.T) {
	golden := map[int]map[string]string{
		1000: {
			"/":                  "a84ba9572337449b68cb853da589b32b89d2c2da66f84ccb6c710005760785ef",
			"/product/p00042":    "e39e55e3c6e17209c7a03d21a3aaf59a5867f0476303b127a70758c5f9ce103f",
			"/product/zz-nested": "40816e133e33bef8b27c07908118ec9918e8a14af08fdd6ea1269440be944d2c",
			"/category/shoes":    "7dcf87f1828e1afee42e5e0541284f0dc295c777d86ea3bd6e3e7f123f63320f",
			"/category/hats":     "a790e878249337a941123ca6e5e1e1ebeeb2a7406dd2ee8e46bfcd1b8a41f7b8",
		},
		50000: {
			"/":                  "a84ba9572337449b68cb853da589b32b89d2c2da66f84ccb6c710005760785ef",
			"/product/p00042":    "e39e55e3c6e17209c7a03d21a3aaf59a5867f0476303b127a70758c5f9ce103f",
			"/product/zz-nested": "40816e133e33bef8b27c07908118ec9918e8a14af08fdd6ea1269440be944d2c",
			"/category/shoes":    "518802b4b92c0dcc840e6f9629be4bc44279e9e952f80ac907b897fdb00df670",
			"/category/hats":     "a733c4dd9ff6b6ef0192f67ea5aacabc8883fe41f65d4da7f0248c69ca073e00",
		},
	}
	for products, want := range golden {
		svc, err := NewStorefront(StorefrontConfig{Config: Config{Seed: 1}, Products: products})
		if err != nil {
			t.Fatal(err)
		}
		err = svc.Docs().Insert("products", "zz-nested", map[string]any{
			"id":       7,
			"category": "hats",
			"price":    1.0, // below the catalog's floor: first on /category/hats
			"meta":     map[string]any{"b": 1, "a": map[string]any{"y": 2.5, "x": "s"}},
			"tags":     []any{"a", 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Docs().Patch("products", "p00042", map[string]any{"price": 49.99, "name": nil, "sale": true}); err != nil {
			t.Fatal(err)
		}
		for path, digest := range want {
			page, err := svc.Origin().Render(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(string(page.Body) + "\x00" + strings.Join(page.Links, "\x00")))
			if got := hex.EncodeToString(sum[:]); got != digest {
				t.Errorf("%d products, %s: body+links digest %s, want %s", products, path, got, digest)
			}
		}
		svc.Close()
	}
}
