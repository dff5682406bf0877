// Seeded violation: a lazy-Value twin kept beside the encoded path.
class PairFeatureView;
int ExplainLegacy();
