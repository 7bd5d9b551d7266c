"""When does the target feature marginal pin the target down uniquely?

Shift on a partition leaves one linear system per cell linking the
unknown (cell, label) masses to the observable feature marginal.  The
conditional class matrix decides solvability: the model is identifiable
when every cell's rank equals the number of labels with source mass in
it.  Good statistics are
the source posteriors or the decision regions of an accurate classifier.
"""

import numpy as np

from sjslab import (
    FeaturePartition,
    binary_variance_criterion,
    brute_force_fit,
    classifier_statistics,
    plant_sjs,
    posterior_statistics,
    rank_matrix,
    train_argmax_classifier,
)
from sjslab.synthetic import paper_example_tables, product_distribution

source, _ = paper_example_tables()
x1 = FeaturePartition.from_features(source.space, ["X1"])

report = rank_matrix(source, x1, posterior_statistics(source))
print("posterior statistics on the X1 partition:")
for n, (rank, svals) in enumerate(zip(report.per_cell_rank, report.singular_values)):
    print(f"  cell {n}: rank {rank}, singular values {np.round(svals, 4)}")
print("identifiable:", report.identifiable)

# In the two-label case the rank condition has a direct reading: the full
# posterior must vary inside every partition cell holding both labels.
verdict = binary_variance_criterion(source, x1)
print("posterior varies within cells:", verdict.holds,
      f"(smallest within-cell spread {verdict.max_violation:.3f})")

# Classifier decision regions work as statistics too.
clf = train_argmax_classifier(source)
report_clf = rank_matrix(source, x1, classifier_statistics(clf.assignment, 2))
print("classifier statistics identifiable:", report_clf.identifiable)

# Losing identifiability: make X2 carry no label information, then
# conditioning on X1 already tells you everything the features know.
flat = product_distribution(
    [0.5, 0.5],
    [
        [[0.6, 0.4], [0.4, 0.6]],
        [[0.5, 0.5], [0.5, 0.5]],
    ],
)
f = FeaturePartition.from_features(flat.space, ["X1"])
print("\nwith an uninformative X2:")
print("identifiable:", rank_matrix(flat, f, posterior_statistics(flat)).identifiable)

# The brute-force enumeration shows what non-identifiability means: the
# per-cell solution sets become polytopes instead of points.
inst = plant_sjs(flat, f, [0.3, 0.7], "random", seed=0)
bf = brute_force_fit(flat, inst.target.feature_marginal(), f)
print("solution set is a singleton:", bf.is_singleton)
for cell in bf.cells:
    print(f"  cell {cell.cell}: {len(cell.vertices)} vertex/vertices")
