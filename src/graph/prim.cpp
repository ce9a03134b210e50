#include "pgf/graph/prim.hpp"

namespace pgf {

std::vector<std::size_t> preorder(const std::vector<std::size_t>& parent) {
    const std::size_t n = parent.size();
    std::size_t root = n;
    std::vector<std::vector<std::size_t>> children(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (parent[i] == i) {
            PGF_CHECK(root == n, "parent array must have exactly one root");
            root = i;
        } else {
            PGF_CHECK(parent[i] < n, "parent index out of range");
            children[parent[i]].push_back(i);
        }
    }
    PGF_CHECK(root < n, "parent array must have a root");
    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<std::size_t> stack{root};
    while (!stack.empty()) {
        std::size_t v = stack.back();
        stack.pop_back();
        order.push_back(v);
        // Push children in reverse so the smallest index is visited first.
        for (std::size_t k = children[v].size(); k-- > 0;) {
            stack.push_back(children[v][k]);
        }
    }
    PGF_CHECK(order.size() == n, "parent array must describe a single tree");
    return order;
}

}  // namespace pgf
