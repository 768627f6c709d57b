"""Statistical battery: paired tests, effect sizes, bootstrap, dominance."""
